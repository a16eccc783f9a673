// Reusable set-associative cache level (sets/ways/LRU) — the building block
// of the modeled hierarchy. MemorySystem instantiates it twice:
//
//   * one L1 data cache per core (SMT siblings share it, which is what
//     creates the extra transactional capacity pressure the paper observes
//     with HyperThreading, Section 4.2). L1 entries carry the precise
//     transactional marks: which thread wrote the line and which threads
//     read it while it stayed resident;
//   * one shared, inclusive last-level cache. LLC entries carry the
//     MESI-style directory state (dirty owner + sharer bitmask) and the
//     line's live transactional reader/writer masks, so coherence and
//     tx-set membership live — and leave — with LLC residency.
//
// A level tracks *which lines are resident* (for latency, capacity and
// coherence), not data values; values live in SharedHeap / the write
// buffers.
//
// Storage is a structure of arrays: a packed tag array (one line per way,
// an invalid-way sentinel when empty) that lookups and victim choice scan,
// a parallel LRU array, and the Entry payload per way.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace tsxhpc::sim {

/// Hardware threads with a line in their live transactional read / write
/// set. Held in the line's LLC entry; MemorySystem parks them in its
/// overflow map while the line is not LLC-resident.
struct TxMasks {
  ThreadMask readers = 0;
  ThreadMask writers = 0;
  bool any() const { return (readers | writers) != 0; }
};

/// Result of touching a line in a cache level.
struct CacheTouch {
  bool hit = false;
  /// Line evicted to make room (only meaningful when !hit and a valid line
  /// was displaced).
  bool evicted = false;
  Addr evicted_line = 0;
  /// Hardware thread whose transaction had *written* the evicted line, or -1.
  /// Evicting such a line is a capacity abort (Section 2: "Eviction of a
  /// transactionally written line from the data cache will cause a
  /// transactional abort").
  ThreadId evicted_tx_writer = -1;
  /// Bitmask of hardware threads that had the evicted line in their
  /// transactional *read* set. Per Section 2 these are moved to a secondary
  /// tracking structure rather than aborting.
  ThreadMask evicted_tx_readers = 0;
  /// Directory state of the evicted entry (LLC evictions only): the core
  /// holding the line dirty (-1 = none) and the sharer bitmask. The caller
  /// uses these to back-invalidate L1 copies (inclusion).
  int evicted_dirty_core = -1;
  CoreMask evicted_sharers = 0;
  /// Live tx read/write masks of the evicted entry (LLC evictions only).
  TxMasks evicted_tx_sets;
};

/// Per-set event counters (telemetry v5). One instance per set, enabled on
/// demand via CacheLevel::enable_set_stats() so the default path stays free.
/// The same struct serves both levels; fields that do not apply to a level
/// (e.g. xfers at L1, write dooms at LLC) simply stay zero. The *charging*
/// happens in MemorySystem — which knows which level served an access and
/// which doom belongs to which set — the CacheLevel only owns the storage,
/// keyed by its own set indexing.
struct SetCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  ///< == fills: every miss allocates at this level
  std::uint64_t evictions = 0;
  std::uint64_t xfers = 0;              ///< LLC only: cross-core transfers
  std::uint64_t back_invalidations = 0;  ///< L1 only: inclusion victims
  std::uint64_t doom_draws = 0;   ///< LLC only: read-evict abort lotteries
  std::uint64_t capacity_write_dooms = 0;  ///< L1 only, charged at rollback
  std::uint64_t capacity_read_dooms = 0;   ///< LLC only, charged at rollback
};

class CacheLevel {
 public:
  /// Payload of one way. The transactional marks are used by L1 instances,
  /// the directory fields by the LLC instance; unused fields stay at their
  /// defaults. The way's line and recency live in the level's tag and LRU
  /// arrays, not here.
  struct Entry {
    ThreadMask tx_readers = 0;
    CoreMask sharers = 0;     // directory: cores with a copy
    TxMasks tx_sets;          // directory: live tx readers/writers
    ThreadId tx_writer = -1;
    int dirty_core = -1;      // directory: core holding the line dirty
    /// L1 only: the line's slot in its owning LLC slice, valid while the
    /// L1 copy is resident (inclusion keeps the LLC copy in place).
    std::uint32_t llc_slot = 0;
  };

  CacheLevel(std::uint32_t sets, std::uint32_t ways)
      : sets_(sets), ways_(ways), tags_(sets * ways, kInvalid),
        lru_(sets * ways, 0), entries_(sets * ways) {
    if (sets_ == 0 || (sets_ & (sets_ - 1)) != 0) {
      throw SimError("cache set count must be a nonzero power of two");
    }
    if (ways_ == 0) throw SimError("cache must have at least one way");
  }

  /// Bring `line` into the level (or refresh its LRU position). Marks the
  /// entry with transactional ownership bits when requested (L1 use).
  CacheTouch touch(Addr line, ThreadId tid, bool tx_write, bool tx_read) {
    CacheTouch r;
    Entry* e = find(line);
    if (e != nullptr) {
      r.hit = true;
      promote(e);
    } else {
      e = &fill(line, r);
    }
    mark(*e, tid, tx_write, tx_read);
    return r;
  }

  /// Allocate absent `line` in its set's victim way as most-recently-used,
  /// reporting a displaced line in `r`. Returns the fresh entry.
  Entry& fill(Addr line, CacheTouch& r) {
    const std::uint32_t slot = victim(line);
    Entry& e = entries_[slot];
    if (tags_[slot] != kInvalid) {
      r.evicted = true;
      r.evicted_line = tags_[slot];
      r.evicted_tx_writer = e.tx_writer;
      r.evicted_tx_readers = e.tx_readers;
      r.evicted_dirty_core = e.dirty_core;
      r.evicted_sharers = e.sharers;
      r.evicted_tx_sets = e.tx_sets;
    }
    tags_[slot] = line;
    lru_[slot] = ++tick_;
    e = Entry{};
    return e;
  }

  /// Record `tid`'s transactional write or read of the entry's line.
  static void mark(Entry& e, ThreadId tid, bool tx_write, bool tx_read) {
    if (tx_write) e.tx_writer = tid;
    if (tx_read) e.tx_readers |= ThreadMask{1} << tid;
  }

  /// Resident entry for `line` without disturbing LRU order, or null. The
  /// LLC uses this to consult/update directory state.
  Entry* find(Addr line) {
    const std::uint32_t base = set_of(line) * ways_;
    const Addr* tags = &tags_[base];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (tags[w] == line) return &entries_[base + w];
    }
    return nullptr;
  }

  /// The entry in `slot` if it holds `line`, else null: the check behind
  /// every use of an L1 entry's llc_slot.
  Entry* at(std::uint32_t slot, Addr line) {
    return tags_[slot] == line ? &entries_[slot] : nullptr;
  }
  std::uint32_t slot_of(const Entry& e) const {
    return static_cast<std::uint32_t>(&e - entries_.data());
  }

  /// Move an entry returned by find() to most-recently-used.
  void promote(Entry* e) { lru_[slot_of(*e)] = ++tick_; }

  bool contains(Addr line) const {
    return const_cast<CacheLevel*>(this)->find(line) != nullptr;
  }

  /// Remote write: drop our copy (coherence invalidation). Returns whether
  /// a resident copy was actually dropped, so callers distinguishing
  /// back-invalidations (inclusion) from no-ops can count them.
  bool invalidate(Addr line) {
    if (Entry* e = find(line)) {
      tags_[slot_of(*e)] = kInvalid;
      return true;
    }
    return false;
  }

  /// Clear the transactional marks `tid` holds on a resident entry (on
  /// commit or abort). Aborts additionally invalidate a line `tid` wrote:
  /// its speculative data was never real, and Haswell discards it.
  void clear_tx_marks(Entry& e, ThreadId tid, bool invalidate_writes) {
    if (e.tx_writer == tid) {
      e.tx_writer = -1;
      if (invalidate_writes) tags_[slot_of(e)] = kInvalid;
    }
    e.tx_readers &= ~(ThreadMask{1} << tid);
  }

  /// Number of valid resident lines (testing hook; also the bound the
  /// directory-boundedness test checks against, since directory state only
  /// exists on resident LLC lines).
  std::size_t resident_lines() const {
    std::size_t n = 0;
    for (Addr tag : tags_) n += tag != kInvalid;
    return n;
  }

  /// Resident lines whose entry still names a live transactional reader or
  /// writer (testing hook).
  std::size_t tx_tracked_lines() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < tags_.size(); ++i) {
      n += tags_[i] != kInvalid && entries_[i].tx_sets.any();
    }
    return n;
  }

  std::uint32_t sets() const { return sets_; }
  std::uint32_t ways() const { return ways_; }
  std::size_t capacity_lines() const {
    return static_cast<std::size_t>(sets_) * ways_;
  }

  std::uint32_t set_of(Addr line) const {
    // Lines are already addr / line_bytes; index by low bits.
    return static_cast<std::uint32_t>(line) & (sets_ - 1);
  }

  /// Allocate (or zero) the per-set counter table. Idempotent; called by
  /// MemorySystem at region entry when MachineConfig::set_stats is on.
  void reset_set_stats() { set_stats_.assign(sets_, SetCounters{}); }
  /// Mutable per-set counters for `set`; only valid after reset_set_stats().
  SetCounters& set_stats(std::uint32_t set) { return set_stats_[set]; }
  const std::vector<SetCounters>& set_stats() const { return set_stats_; }

  /// End-of-run occupancy snapshot: valid resident lines per set (0..ways).
  std::vector<std::uint32_t> occupancy_by_set() const {
    std::vector<std::uint32_t> occ(sets_, 0);
    for (std::size_t i = 0; i < tags_.size(); ++i) {
      if (tags_[i] != kInvalid) ++occ[i / ways_];
    }
    return occ;
  }

 private:
  /// Tag of an empty way. Lines are byte addresses divided by the line
  /// size, so no real line reaches it.
  static constexpr Addr kInvalid = ~Addr{0};

  /// Victim slot within the set of `line`: the first invalid way, else the
  /// first least-recently-used one.
  std::uint32_t victim(Addr line) const {
    const std::uint32_t base = set_of(line) * ways_;
    std::uint32_t best = base;
    for (std::uint32_t s = base; s < base + ways_; ++s) {
      if (tags_[s] == kInvalid) return s;
      if (lru_[s] < lru_[best]) best = s;
    }
    return best;
  }

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::uint64_t tick_ = 0;
  std::vector<Addr> tags_;            // line per way, kInvalid when empty
  std::vector<std::uint64_t> lru_;    // tick of each way's last touch
  std::vector<Entry> entries_;        // payload per way
  std::vector<SetCounters> set_stats_;  // empty unless set-stats is enabled
};

}  // namespace tsxhpc::sim
