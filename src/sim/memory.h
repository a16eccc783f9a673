// MemorySystem: ties together the shared heap, the modeled cache hierarchy
// (per-core L1s + an array of shared inclusive LLC slices + per-socket DRAM
// endpoints), and the per-hardware-thread RTM transactional state
// (read/write line sets, write buffer, abort causes).
//
// Topology (MachineConfig::topology): a line's owning slice is an address
// hash (llc_slice_of_line); the coherence directory for the line lives in
// that slice's entries, and TSX read-set tracking keys off that slice's
// residency. Accesses that leave the core pay the interconnect model on top
// of the level latency: lat_hop_slice to a non-local slice on the same
// socket, lat_hop_socket to a remote socket's slice, to remote-homed DRAM,
// and for dirty lines forwarded from a remote socket's core. The default
// 1-socket/1-slice topology charges no hops and is bit-for-bit the historic
// single-LLC model.
//
// Every *timed* shared-memory access in the simulator funnels through
// MemorySystem::load/store; this is where conflicts are detected (eagerly,
// requester-wins, at cache-line granularity — matching the first TSX
// implementation described in Section 2 of the paper) and where capacity
// aborts originate:
//
//   * a transactionally *written* line leaving the L1 — whether displaced
//     by the owner's own traffic or back-invalidated by an LLC eviction
//     (the LLC is inclusive) — aborts the writing transaction immediately
//     (kCapacityWrite);
//   * a transactionally *read* line evicted from the L1 moves to the
//     secondary tracking structure and does NOT abort while the line stays
//     LLC-resident; evicting it from the LLC exposes the tracker's
//     imprecision and dooms each reader with read_evict_abort_prob
//     (kCapacityRead). Read-set capacity is therefore a function of LLC
//     geometry.
//
// The MESI-style coherence directory lives in the LLC's entries: directory
// state exists exactly for LLC-resident lines and is reclaimed on eviction,
// so the memory system's footprint is bounded by the configured geometry.
// Each line's live transactional reader/writer masks ride in the same entry.
// An LLC eviction moves a tracked line's masks, unchanged, into one overflow
// map (the secondary tracker), and a DRAM fill of the line takes them back,
// so a tracked line's masks always live in exactly one place. Commit and
// abort walk the thread's own read/write lines, not a whole cache level.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/cache.h"
#include "sim/config.h"
#include "sim/heap.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace tsxhpc::sim {

class Telemetry;

/// Word-granularity (8 B aligned) speculative write buffer: word address ->
/// value. The words sit in an array in first-write order, indexed by a flat
/// open-addressed table, so buffering a word allocates nothing once the
/// table has grown, clear() is O(1) and commit publishes in a fixed order.
class WriteBuffer {
 public:
  bool empty() const { return words_.empty(); }

  /// The buffered value of `word`, or null.
  std::uint64_t* find(Addr word) {
    if (words_.empty()) return nullptr;
    for (std::size_t i = home(word);; i = (i + 1) & mask_) {
      if (index_[i].gen != gen_) return nullptr;
      auto& [w, value] = words_[index_[i].pos];
      if (w == word) return &value;
    }
  }

  /// The buffered value of `word`; a new word is appended with value 0 and
  /// `fresh` set, for the caller to fill.
  std::uint64_t& slot(Addr word, bool& fresh) {
    if (std::uint64_t* v = find(word)) {
      fresh = false;
      return *v;
    }
    fresh = true;
    if (2 * (words_.size() + 1) > index_.size()) grow();
    index(word, static_cast<std::uint32_t>(words_.size()));
    return words_.emplace_back(word, 0).second;
  }

  void clear() {
    words_.clear();
    if (++gen_ == 0) {  // the generation wrapped: wipe the stale slots
      index_.assign(index_.size(), Slot{});
      gen_ = 1;
    }
  }

  /// Buffered (word, value) pairs in first-write order.
  const std::vector<std::pair<Addr, std::uint64_t>>& words() const {
    return words_;
  }

 private:
  /// An index slot is occupied when its gen equals the table's, so bumping
  /// the table's gen empties every slot at once.
  struct Slot {
    std::uint32_t gen = 0;
    std::uint32_t pos = 0;  // into words_
  };

  std::size_t home(Addr word) const {
    return static_cast<std::size_t>(((word >> 3) * 0x9E3779B97F4A7C15ULL) >>
                                    shift_);
  }
  void index(Addr word, std::uint32_t pos) {
    std::size_t i = home(word);
    while (index_[i].gen == gen_) i = (i + 1) & mask_;
    index_[i] = Slot{gen_, pos};
  }
  /// Double the index (16 slots at first) and rebuild it from words_.
  void grow() {
    const std::size_t n = index_.empty() ? 16 : 2 * index_.size();
    index_.assign(n, Slot{});
    mask_ = n - 1;
    shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(n));
    gen_ = 1;
    for (std::uint32_t p = 0; p < words_.size(); ++p) index(words_[p].first, p);
  }

  std::vector<std::pair<Addr, std::uint64_t>> words_;
  std::vector<Slot> index_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::uint32_t gen_ = 1;
};

/// Transactional state of one hardware thread.
struct TxState {
  bool active = false;
  int nest_depth = 0;

  // Doomed by a remote conflicting access (requester wins); the victim
  // observes this at its next simulator event and rolls back.
  bool doomed = false;
  AbortCause doom_cause = AbortCause::kNone;

  // Provenance of the doom, captured at detection time: the cache line
  // (byte address) whose access killed us, who issued it (-1 when the doom
  // was a capacity event rather than a remote access), and the access kind.
  Addr doom_line = kNullAddr;
  ThreadId doom_aggressor = -1;
  bool doom_was_write = false;

  // Line-granularity read/write sets: the per-thread index of the lines
  // whose LLC-entry (or overflow) masks carry this thread's bit.
  std::vector<Addr> read_lines;
  std::vector<Addr> write_lines;

  WriteBuffer write_buffer;

  void reset() {
    active = false;
    nest_depth = 0;
    doomed = false;
    doom_cause = AbortCause::kNone;
    doom_line = kNullAddr;
    doom_aggressor = -1;
    doom_was_write = false;
    read_lines.clear();
    write_lines.clear();
    write_buffer.clear();
  }
};

/// Outcome of a timed access, consumed by Context.
struct AccessResult {
  Cycles latency = 0;
  MemLevel level = MemLevel::kL1;  // level that served the access
  std::uint64_t value = 0;         // loads only
};


class MemorySystem {
 public:
  MemorySystem(const MachineConfig& cfg, std::vector<ThreadStats>& stats);

  SharedHeap& heap() { return heap_; }
  const MachineConfig& config() const { return cfg_; }

  // --- Timed accesses (called by Context with the scheduler token held) ----

  /// Timed load of `size` (1/2/4/8, naturally aligned) bytes at `a`.
  AccessResult load(ThreadId t, Addr a, unsigned size);

  /// Timed store. `value` is unused in the result.
  AccessResult store(ThreadId t, Addr a, std::uint64_t v, unsigned size);

  /// LOCK-prefixed read-modify-write outside a transaction; inside a
  /// transaction it degenerates to load+store within the speculative domain
  /// (legal on real hardware). `op` combines old value and operand. The
  /// result's level is the load's serving level (the store that follows
  /// always hits the just-filled L1 line).
  template <typename F>
  AccessResult atomic_rmw(ThreadId t, Addr a, unsigned size, F&& op) {
    AccessResult r = load(t, a, size);
    std::uint64_t nv = op(r.value);
    r.latency += store(t, a, nv, size).latency;
    if (!tx_[t].active) r.latency += cfg_.lat_atomic_rmw;
    stats_[t].atomics++;
    return r;
  }

  // --- Transactional control -----------------------------------------------

  /// XBEGIN. Returns false (and records an explicit-style abort) only on
  /// nesting overflow; the caller converts that into a TxAbort.
  void tx_begin(ThreadId t);

  /// XEND: publish the write buffer, clear sets. Caller charges lat_xend.
  void tx_end(ThreadId t);

  /// Roll back thread t's transaction with the given cause. Clears all
  /// speculative state; caller throws TxAbort and charges lat_abort.
  void tx_rollback(ThreadId t, AbortCause cause);

  bool in_tx(ThreadId t) const { return tx_[t].active; }
  const TxState& tx_state(ThreadId t) const { return tx_[t]; }

  /// True if t has been doomed by a remote conflict and must roll back.
  bool doomed(ThreadId t) const { return tx_[t].doomed; }

  /// Abandon any in-flight transactions (run teardown after an error).
  void reset_all_tx();

  /// Zero (and, on first use, allocate) the per-set counter tables of every
  /// level. Machine::run calls this at region entry when
  /// MachineConfig::set_stats is on, mirroring the ThreadStats reset, so
  /// per-set counters cover exactly one run even though cache *contents*
  /// stay warm across runs.
  void reset_set_stats();
  bool set_stats_enabled() const { return set_stats_; }

  /// Telemetry sink for conflict events (null = off). Not owned.
  void set_telemetry(Telemetry* tel) { tel_ = tel; }

  /// Zero the per-slice/per-socket topology counters; Machine::run calls
  /// this at region entry, mirroring the ThreadStats reset.
  void reset_topology_stats();
  const std::vector<SliceStats>& slice_stats() const { return slice_stats_; }
  const std::vector<SocketStats>& socket_stats() const {
    return socket_stats_;
  }

  // Testing hooks.
  const CacheLevel& l1_of_core(int core) const { return l1_[core]; }
  /// LLC slice `slice` (default: slice 0, the whole LLC on a single-slice
  /// machine).
  const CacheLevel& llc(int slice = 0) const { return llc_[slice]; }
  int num_slices() const { return static_cast<int>(llc_.size()); }
  /// Lines with live directory state == LLC-resident lines (the directory
  /// rides in each slice's entries; boundedness tests check this never
  /// exceeds the configured LLC capacity).
  std::size_t directory_entries() const {
    std::size_t n = 0;
    for (const CacheLevel& s : llc_) n += s.resident_lines();
    return n;
  }
  /// Lines with live transactional masks, LLC-resident or overflowed
  /// (bounded by the footprints of currently active transactions).
  std::size_t tx_registry_entries() const {
    std::size_t n = tx_overflow_.size();
    for (const CacheLevel& s : llc_) n += s.tx_tracked_lines();
    return n;
  }

 private:
  Addr line_of(Addr a) const { return a >> line_shift_; }
  int core_of(ThreadId t) const { return core_of_thread_[t]; }
  int slice_of(Addr line) const { return cfg_.slice_of_line(line); }

  /// DRAM home socket of `line`: first-touch under --map=sharing-aware
  /// (recorded at the line's first DRAM fill, by requester socket),
  /// line-interleaved otherwise. Single-socket machines always home to 0.
  int home_socket(Addr line, int requester_socket);

  /// Eager conflict detection, requester wins: doom every *other* thread
  /// whose transactional sets overlap this access. `e` is the line's LLC
  /// entry, or null when the line is not LLC-resident (its masks, if any,
  /// are then in the overflow map).
  void detect_conflicts(ThreadId t, Addr line, bool is_write,
                        const CacheLevel::Entry* e);

  /// Returns true if the victim was actually doomed by this call (it had an
  /// active, not-yet-doomed transaction). `line` is the byte address of the
  /// cache line responsible; `aggressor` is the thread whose access doomed
  /// the victim (-1 for capacity evictions).
  bool doom(ThreadId victim, AbortCause cause, Addr line, ThreadId aggressor,
            bool is_write);

  /// Track `line`'s membership in t's transactional read or write set, on
  /// the line's (resident) LLC entry `e`.
  void tx_track(ThreadId t, Addr line, CacheLevel::Entry& e, bool is_write);

  /// Run the hierarchy (conflict check -> L1 -> owning slice's directory/LLC
  /// -> DRAM) and track the line if t is in a transaction; returns the
  /// latency (including any slice/socket hop charges) and the level that
  /// served the access.
  AccessResult cache_access(ThreadId t, Addr line, bool is_write);

  /// Capacity consequences of an L1 eviction: doom the tx writer (write-set
  /// capacity), move tx readers to secondary tracking (no abort — the line
  /// is still resident in its owning slice by inclusion).
  void on_l1_eviction(const CacheTouch& touch);

  /// An eviction from LLC slice `slice`: back-invalidate L1 copies
  /// (inclusion), doom tx writers (kCapacityWrite), and doom tx readers
  /// with read_evict_abort_prob (kCapacityRead) — the secondary tracker
  /// loses the line with the slice that backed it. Directory state dies
  /// with the entry; its tx masks move to the overflow map.
  void on_llc_eviction(const CacheTouch& touch, int slice);

  /// MESI-style directory update on `line`'s LLC entry: a write
  /// invalidates all other cores' copies and takes dirty ownership; a read
  /// joins the sharers (downgrading a remote dirty owner).
  void update_directory(Addr line, CacheLevel::Entry& e, int core,
                        bool is_write);

  /// The LLC entry an L1 entry links to, checked against `line`: inclusion
  /// guarantees it, so a mismatch is a simulator bug and throws.
  CacheLevel::Entry& linked_llc_entry(CacheLevel& llc,
                                      const CacheLevel::Entry& l1e,
                                      Addr line);

  /// One deterministic draw of the secondary-tracker imprecision hash;
  /// true = the eviction dooms the reader.
  bool read_evict_dooms(Addr line);

  /// End t's transaction in the line state: for each line of its read and
  /// write sets, clear t's bit in the line's masks (LLC entry or overflow)
  /// and t's L1 marks on it. Aborts also drop the lines t wrote from the L1.
  void release_tx_lines(ThreadId t, bool invalidate_writes);

  void check_alignment(Addr a, unsigned size) const;

  const MachineConfig& cfg_;
  std::vector<ThreadStats>& stats_;
  // Topology tables, built once from MachineConfig's mapping functions.
  unsigned line_shift_ = 0;              // log2(line_bytes)
  std::vector<int> core_of_thread_;      // per hardware thread
  std::vector<int> socket_of_core_;      // per core
  std::vector<int> local_slice_of_core_; // per core
  std::vector<int> socket_of_slice_;     // per LLC slice
  SharedHeap heap_;
  std::vector<CacheLevel> l1_;   // per core (SMT siblings share)
  std::vector<CacheLevel> llc_;  // one inclusive slice per topology slice;
                                 // each hosts its shard of the directory
  std::vector<TxState> tx_;      // per hardware thread
  // The secondary tracker: tx masks of lines evicted from their LLC slice
  // while still in some live read/write set. Keeps them visible to conflict
  // detection until a DRAM fill moves them back into the new entry; entries
  // are erased when the last bit clears, so the map stays bounded by live
  // transactional footprints.
  std::unordered_map<Addr, TxMasks> tx_overflow_;
  // v6 topology counters (one run's worth; Machine::run resets them) and
  // the sharing-aware first-touch home registry (persistent across runs,
  // like cache contents; only populated on multi-socket machines).
  std::vector<SliceStats> slice_stats_;
  std::vector<SocketStats> socket_stats_;
  std::unordered_map<Addr, int> line_home_;
  // True when the topology can charge hops (more than one slice or socket);
  // caches the test out of the per-access hot path.
  bool topo_multi_ = false;
  // Monotone counter feeding the deterministic read-evict abort hash.
  std::uint64_t evict_events_ = 0;
  Telemetry* tel_ = nullptr;
  // Cached MachineConfig::set_stats: when true, every charge site above also
  // bumps the matching CacheLevel::set_stats() counter (tables are lazily
  // allocated by reset_set_stats()).
  bool set_stats_ = false;
};

}  // namespace tsxhpc::sim
