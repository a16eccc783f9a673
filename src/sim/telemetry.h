// Structured telemetry — the machine-readable counterpart of perf_report().
//
// The paper's entire methodology is observability: Table 1 and Figures 1-6
// are built from Linux `perf` TSX event counters. This layer is the
// reproduction's analogue of that tooling, but with the per-site and
// per-attempt visibility `perf stat` aggregates away:
//
//   * per-transaction ATTEMPT CHAINS: every hardware transaction is recorded
//     with its attempt number inside an elided section, its abort cause and
//     footprint, and the retry -> fallback lineage of the section it served;
//   * per-LOCK-SITE elision stats: elision success rate, lock-hold cycles and
//     acquire-path wait (handoff) cycles per lock word — the per-workload
//     analogue of Table 1;
//   * VIRTUAL-TIME INTERVAL SAMPLES: abort-rate / L1-miss time series, so
//     abort storms and phase behaviour are visible instead of averaged away;
//   * exports: JSON (aggregates + histograms + samples, stable key order) and
//     Chrome trace-event format viewable in Perfetto (one track per hardware
//     thread, transaction slices named by outcome).
//
// Lifecycle: construct a Telemetry, point MachineConfig::telemetry at it (or
// call Machine::set_telemetry), and every run of every Machine built from
// that config appends a RunRecord. Detached (the default) every hook site is
// a single null-check. All timestamps are virtual
// cycles — no wall-clock time ever enters the output, so two identical runs
// export byte-identical artifacts.
//
// Thread-safety: hooks are only called by simulated threads holding the
// scheduler token (or by the engine under its own mutex), so all state here
// is written race-free, the same argument ThreadStats relies on.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/cache.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace tsxhpc::sim {

/// What kind of synchronization object a lock site is. Recorded on the first
/// event a site produces in a run; purely descriptive.
enum class LockKind : std::uint8_t {
  kSpin,
  kTicket,
  kFutex,
  kElided,
  kHle,
  kLockset,
  kMonitor,
};

const char* to_string(LockKind k);

/// How a TxPolicy (sync/policy.h) resolved one policy consultation inside an
/// elided section. Aborts map 1:1 to decisions, so the per-site counts
/// reconcile with the attempt chains: retries+backoffs+lock_waits+fallbacks
/// == tx_aborts, and fallbacks+skips == fallback_acquires (CI asserts both).
enum class PolicyDecision : std::uint8_t {
  kRetry,     // retry immediately
  kBackoff,   // backoff cycles charged, then retry
  kLockWait,  // waited for the subscribed lock word(s), then retried
  kFallback,  // the decision ended the section: acquire the lock for real
  kSkip,      // should_attempt declined — no transactional attempt at all
  kNumDecisions,
};

const char* to_string(PolicyDecision d);

struct TelemetryOptions {
  /// Initial virtual-time sampling interval. When a run outgrows
  /// `max_samples` buckets, adjacent buckets are merged and the interval
  /// doubles — long runs keep a bounded, coarser series instead of OOMing.
  Cycles sample_interval = 1 << 15;
  std::size_t max_samples = 256;

  /// Collect per-attempt records (required for the Chrome trace export).
  /// Off by default: aggregate stats, lock sites and samples are always on.
  bool collect_attempts = false;
  /// Ring-buffer capacity for attempt records per run (0 = unbounded). When
  /// full, the oldest records are dropped — the tail of an abort storm is
  /// more diagnostic than its head.
  std::size_t max_attempts = 8192;
  /// Ring-buffer capacity for scheduler blocked-slices per run.
  std::size_t max_blocked = 4096;
};

/// One hardware-transaction attempt (or a fallback lock-hold slice).
struct AttemptRec {
  ThreadId tid = 0;
  std::uint32_t section = 0;  // retry chains share a section id
  std::uint16_t attempt = 0;  // 0-based attempt number within the section
  bool fallback = false;      // lock-held fallback slice, not a transaction
  bool committed = false;
  AbortCause cause = AbortCause::kNone;
  Cycles start = 0;
  Cycles end = 0;
  std::uint32_t read_lines = 0;
  std::uint32_t write_lines = 0;
  Addr site = 0;  // lock word subscribed by the section; 0 = raw transaction
};

/// A futex-blocked interval of one simulated thread.
struct BlockedSlice {
  ThreadId tid = 0;
  Cycles start = 0;
  Cycles end = 0;
};

/// Conflict provenance for one cache line (keyed by the line's byte
/// address): how often accesses to this line doomed a transaction, who the
/// aggressors and victims were, and which named allocation the line belongs
/// to. This is the per-run "top conflicting lines" table — the repo's
/// analogue of Dice et al.'s address-level abort attribution.
struct ConflictLineStats {
  std::string object;  // named-allocation owner ("" when unnamed)
  std::uint64_t dooms = 0;
  std::uint64_t write_dooms = 0;  // aggressor access was a write
  std::uint64_t read_dooms = 0;   // aggressor access was a read
  std::vector<std::uint64_t> by_aggressor;  // indexed by thread id
  std::vector<std::uint64_t> by_victim;
};

/// Capacity provenance for one cache line: transactions doomed because this
/// line was evicted from the L1 (written line) or lost by the secondary
/// read tracker (read line).
struct CapacityLineStats {
  std::string object;
  std::uint64_t write_evict_dooms = 0;
  std::uint64_t read_evict_dooms = 0;
};

/// Per-lock-site statistics (keyed by the lock word's heap address, which
/// the deterministic allocator makes stable across runs).
struct LockSiteStats {
  LockKind kind = LockKind::kSpin;
  // Real (non-elided) lock-word traffic.
  std::uint64_t acquires = 0;
  std::uint64_t contended_acquires = 0;
  Cycles wait_cycles = 0;  // acquire-path spin/block time (handoff latency)
  Cycles hold_cycles = 0;  // time the lock word was actually held
  // Elision outcomes for sections subscribed to this word.
  std::uint64_t elided_commits = 0;
  std::uint64_t fallback_acquires = 0;
  std::uint64_t tx_aborts = 0;
  std::array<std::uint64_t, static_cast<size_t>(AbortCause::kNumCauses)>
      aborts_by_cause{};
  // Cycle accounting for sections subscribed to this word: transactional
  // cycles by outcome, plus time spent holding the lock on fallback.
  Cycles tx_cycles_committed = 0;
  Cycles tx_cycles_wasted = 0;
  Cycles fallback_hold_cycles = 0;
  // TxPolicy consultations for sections on this site, by outcome (schema
  // v4; see PolicyDecision for the reconciliation invariants).
  std::array<std::uint64_t,
             static_cast<size_t>(PolicyDecision::kNumDecisions)>
      policy_decisions{};

  std::uint64_t policy_decisions_total() const {
    std::uint64_t n = 0;
    for (auto d : policy_decisions) n += d;
    return n;
  }

  double elision_rate() const {
    const double total =
        static_cast<double>(elided_commits + fallback_acquires);
    return total == 0 ? 0.0 : static_cast<double>(elided_commits) / total;
  }
};

struct FutexStats {
  std::uint64_t waits = 0;
  std::uint64_t wakes = 0;
};

/// One virtual-time bucket of the per-run time series.
struct IntervalSample {
  std::uint64_t tx_started = 0;
  std::uint64_t tx_committed = 0;
  std::uint64_t tx_aborted = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  // v5 memory-pressure columns. Unlike the l1 columns (whose tail between
  // the last sampling event and run end is never flushed — frozen v4
  // semantics), these are flushed into the final bucket at end_run, so each
  // column sums exactly to its run total (CI-checked).
  std::uint64_t llc_misses = 0;
  Cycles mem_stall = 0;

  void merge(const IntervalSample& o) {
    tx_started += o.tx_started;
    tx_committed += o.tx_committed;
    tx_aborted += o.tx_aborted;
    fallbacks += o.fallbacks;
    l1_hits += o.l1_hits;
    l1_misses += o.l1_misses;
    llc_misses += o.llc_misses;
    mem_stall += o.mem_stall;
  }
};

/// Per-set counters of one cache level, snapshotted at end of run (schema
/// v5, present only when MachineConfig::set_stats is on). `level` names the
/// instance ("l1.c0".."l1.cN" / "llc"); `occupancy` is the end-of-run valid
/// line count per set (0..ways).
struct LevelSetStats {
  std::string level;
  std::uint32_t sets = 0;
  std::uint32_t ways = 0;
  std::vector<SetCounters> counters;
  std::vector<std::uint32_t> occupancy;
};

/// One named allocation's geometry footprint: which contiguous line range it
/// occupies and the (wrapped) set span it maps to at each level. Computed
/// at export from the registry + geometry — a pure function, no counters.
struct NamedRegionRec {
  std::string name;
  Addr base = 0;
  std::uint64_t bytes = 0;
  std::uint64_t lines = 0;
  std::uint32_t l1_set_start = 0;   // first_line % l1_sets
  std::uint32_t l1_sets_covered = 0;  // min(lines, l1_sets)
  std::uint32_t llc_set_start = 0;
  std::uint32_t llc_sets_covered = 0;
};

/// Machine topology of a run plus its per-slice/per-socket counters
/// (telemetry v6, always present). The slice counters decompose the run's
/// llc_* level totals exactly and the socket counters its mem_accesses /
/// llc_misses; hop latencies ride along so invariant checkers can reconcile
/// hop_cycles == slice_hops * lat_hop_slice + socket_hops * lat_hop_socket
/// from the artifact alone.
struct TopologyRec {
  int sockets = 1;
  int cores_per_socket = 0;
  int slices = 1;
  std::string map;  // compact | scatter | sharing-aware
  Cycles lat_hop_slice = 0;
  Cycles lat_hop_socket = 0;
  std::vector<SliceStats> slice_stats;
  std::vector<SocketStats> socket_stats;
};

/// Power-of-two-bucket histogram: bucket 0 holds value 0, bucket i holds
/// [2^(i-1), 2^i).
struct Histogram {
  std::array<std::uint64_t, 34> buckets{};

  void add(std::uint64_t v) {
    const int b = v == 0 ? 0 : 64 - __builtin_clzll(v);
    buckets[b < 33 ? b : 33]++;
  }
  static std::uint64_t lower_bound_of(std::size_t bucket) {
    return bucket == 0 ? 0 : 1ULL << (bucket - 1);
  }
  bool empty() const {
    for (auto b : buckets)
      if (b != 0) return false;
    return true;
  }
};

/// Concurrency-control counters for one run (schema v7): what the tmlib
/// scheme seam saw, aggregated over threads. Emitted as the per-run `cc`
/// block. For hardware/lock schemes (sgl/tsx) `starts`/`commits` count
/// atomic *regions* — hardware retries live below this layer in the attempt
/// chains, so `aborts` stays 0 and CI enforces it. For STM schemes each
/// attempt is a start, and every abort carries exactly one class
/// (starts == commits + aborts; the classes sum to aborts — CI-enforced).
struct CcStats {
  std::string scheme;  // "sgl"/"tl2"/"tsx"/"tictoc"/"tictoc-hybrid"/"mvcc"
  std::uint64_t starts = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  // Abort classes (STM schemes only; all zero for sgl/tsx).
  std::uint64_t aborts_read_validation = 0;
  std::uint64_t aborts_lock_acquire = 0;
  std::uint64_t aborts_commit_validation = 0;
  // TicToc: commit-time rts extensions that saved a would-be abort.
  std::uint64_t read_set_extensions = 0;
  // MVCC: validation-free read-only commits, version-chain accounting, GC.
  std::uint64_t snapshot_commits = 0;
  std::uint64_t versions_created = 0;
  std::uint64_t version_chain_hops = 0;
  std::uint64_t version_chain_depth_max = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_reclaims = 0;

  double abort_rate_pct() const {
    return starts == 0 ? 0.0
                       : 100.0 * static_cast<double>(aborts) /
                             static_cast<double>(starts);
  }

  /// Fold another thread's (or run's) counters into this one.
  void merge(const CcStats& o) {
    if (scheme.empty()) {
      scheme = o.scheme;
    } else if (!o.scheme.empty() && o.scheme != scheme) {
      scheme = "mixed";
    }
    starts += o.starts;
    commits += o.commits;
    aborts += o.aborts;
    aborts_read_validation += o.aborts_read_validation;
    aborts_lock_acquire += o.aborts_lock_acquire;
    aborts_commit_validation += o.aborts_commit_validation;
    read_set_extensions += o.read_set_extensions;
    snapshot_commits += o.snapshot_commits;
    versions_created += o.versions_created;
    version_chain_hops += o.version_chain_hops;
    version_chain_depth_max =
        std::max(version_chain_depth_max, o.version_chain_depth_max);
    gc_runs += o.gc_runs;
    gc_reclaims += o.gc_reclaims;
  }
};

/// Everything recorded about one Machine::run region.
struct RunRecord {
  std::string label;
  /// Execution backend name ("fiber"/"thread"). Purely descriptive — every
  /// other byte of the record is backend-invariant (the equivalence tests
  /// assert exactly that).
  std::string backend;
  int num_threads = 0;
  bool complete = false;  // end_run seen (false = engine teardown)
  RunStats stats;

  // Attempt chains (ring; only populated when collect_attempts is set).
  std::vector<AttemptRec> attempts;
  std::size_t attempts_head = 0;  // ring start index
  std::uint64_t attempts_dropped = 0;
  std::vector<BlockedSlice> blocked;
  std::size_t blocked_head = 0;
  std::uint64_t blocked_dropped = 0;
  Cycles blocked_cycles = 0;
  std::uint64_t blocked_slices = 0;

  // Retry -> fallback lineage, aggregated: how many sections committed on
  // their k-th transactional attempt / fell back after k aborted attempts.
  std::vector<std::uint64_t> committed_by_attempt;
  std::vector<std::uint64_t> fallback_after_attempts;

  Histogram commit_footprint_lines;
  Histogram abort_footprint_lines;
  Histogram commit_cycles;
  Histogram abort_cycles;

  std::map<Addr, LockSiteStats> locks;
  std::map<Addr, FutexStats> futexes;

  /// aggressor-major num_threads x num_threads conflict-doom counts.
  std::vector<std::uint64_t> conflicts;
  std::uint64_t conflict_dooms = 0;

  /// Conflict / capacity provenance, keyed by line byte address (stable
  /// across runs thanks to the deterministic allocator).
  std::map<Addr, ConflictLineStats> conflict_lines;
  std::map<Addr, CapacityLineStats> capacity_lines;

  /// conflict_lines sorted hottest-first (dooms desc, address asc) — the
  /// order the JSON export and reports use.
  std::vector<std::pair<Addr, const ConflictLineStats*>>
      conflict_lines_by_heat() const;

  std::vector<IntervalSample> samples;
  Cycles sample_interval = 0;

  /// Per-set accounting (v5). Empty unless MachineConfig::set_stats was on
  /// for the run; the exporter omits the block entirely when empty so
  /// ungated artifacts do not change shape.
  std::vector<LevelSetStats> set_stats;
  std::vector<NamedRegionRec> set_objects;
  std::uint32_t line_bytes = 0;  // geometry context for the set block

  /// Topology + per-slice/per-socket counters (v6, always present).
  TopologyRec topology;

  /// Concurrency-control counters (v7). Emitted only when a TM runtime
  /// reported into the run (`has_cc`), so non-TM runs keep their shape.
  CcStats cc;
  bool has_cc = false;

  /// Attempts in chronological (ring-unrolled) order.
  std::vector<AttemptRec> attempts_in_order() const;
  std::vector<BlockedSlice> blocked_in_order() const;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions opt = {});

  const TelemetryOptions& options() const { return opt_; }

  // --- Run lifecycle (called by Machine) ----------------------------------

  /// Open a run record. `label` (usually RunSpec::label) names the run;
  /// re-announcing the label the previous run adopted means "another run of
  /// the same region" and gets a "#2", "#3", ... suffix. Empty label: reuse
  /// the last explicit label (suffixed), or fall back to "run_<seq>".
  void begin_run(int num_threads, const std::vector<ThreadStats>* live_stats,
                 std::string_view backend = {}, std::string_view label = {});
  void end_run(const RunStats& rs);
  /// Discard the open run record (engine teardown path).
  void abandon_run();

  /// Attach the per-set snapshot to the open run (called by Machine just
  /// before end_run when MachineConfig::set_stats is on). No-op when no run
  /// is open.
  void record_set_stats(std::vector<LevelSetStats> levels,
                        std::vector<NamedRegionRec> objects,
                        std::uint32_t line_bytes);

  /// Attach the topology snapshot (v6) to the open run (called by Machine
  /// just before end_run). No-op when no run is open.
  void record_topology(TopologyRec topo);

  /// Merge concurrency-control counters (v7) into the open run (called by
  /// the tmlib runtime as each TM thread retires). No-op when no run is
  /// open — e.g. a TmRuntime torn down outside any region.
  void record_cc(const CcStats& cc);

  // --- Hooks (called with the scheduler token held) -----------------------

  /// One outermost hardware transaction finished (committed or aborted).
  void on_txn(ThreadId tid, Cycles start, Cycles end, bool committed,
              AbortCause cause, std::uint32_t read_lines,
              std::uint32_t write_lines);

  /// An elided section opens on `tid`, subscribed to lock word `site`.
  void section_enter(ThreadId tid, Addr site, LockKind kind);
  /// The open section committed transactionally.
  void section_commit(ThreadId tid);
  /// The open section fell back to a real acquisition held over
  /// [acquired_at, released_at].
  void section_fallback(ThreadId tid, Cycles acquired_at, Cycles released_at);

  /// The TxPolicy resolved one consultation for `tid`'s open section.
  /// Attributed to that section's site; dropped when no section is open
  /// (e.g. a lockset over zero locks).
  void policy_decision(ThreadId tid, PolicyDecision d);

  /// A real lock acquisition completed (wait began at `wait_start`).
  void on_lock_acquired(Addr site, LockKind kind, ThreadId tid,
                        Cycles wait_start, Cycles now, bool contended);
  void on_lock_released(Addr site, ThreadId tid, Cycles now);

  /// Engine: thread `tid` was futex-blocked over [start, end].
  void on_blocked(ThreadId tid, Cycles start, Cycles end);

  /// Memory system: `aggressor`'s access to `line` (byte address) doomed
  /// `victim`'s transaction. `object` is the named allocation owning the
  /// line ("" if unnamed), resolved by the caller who owns the heap.
  void on_conflict(ThreadId aggressor, ThreadId victim, Addr line,
                   bool is_write, std::string_view object);

  /// Memory system: `victim` was doomed by the eviction of `line` — a
  /// written line leaving the L1, or a read line lost by the secondary
  /// tracker (`read_line`).
  void on_capacity(ThreadId victim, Addr line, bool read_line,
                   std::string_view object);

  /// Futex table events.
  void on_futex_wait(Addr addr);
  void on_futex_wake(Addr addr);

  // --- Export -------------------------------------------------------------

  const std::vector<RunRecord>& runs() const { return runs_; }

  /// Full JSON artifact (schema tsxhpc-telemetry-v7), stable key order.
  std::string json(const std::string& bench_name) const;
  /// Chrome trace-event JSON (catapult format, loadable in Perfetto): one
  /// process per run, one track per hardware thread, transaction slices
  /// named by outcome. Timestamps are virtual cycles presented as µs.
  std::string chrome_trace() const;

  bool write_json(const std::string& path,
                  const std::string& bench_name) const;
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct OpenSection {
    bool open = false;
    Addr site = 0;
    LockKind kind = LockKind::kSpin;
    std::uint32_t id = 0;
    std::uint16_t attempts = 0;  // transactional attempts so far
  };

  RunRecord* cur() { return open_run_ ? &runs_.back() : nullptr; }
  LockSiteStats& site_stats(RunRecord& r, Addr site, LockKind kind);
  IntervalSample& bucket(RunRecord& r, Cycles at);
  void sample_l1(RunRecord& r, Cycles at);
  void push_attempt(RunRecord& r, const AttemptRec& rec);
  static void bump(std::vector<std::uint64_t>& v, std::size_t idx);

  TelemetryOptions opt_;
  std::vector<RunRecord> runs_;
  bool open_run_ = false;
  std::uint64_t run_seq_ = 0;
  std::string next_label_;
  std::string last_label_;
  std::uint64_t label_reuse_ = 0;

  // Per-run scratch state.
  const std::vector<ThreadStats>* live_stats_ = nullptr;
  std::vector<OpenSection> open_sections_;
  std::uint32_t next_section_id_ = 0;
  std::uint64_t last_l1_hits_ = 0;
  std::uint64_t last_l1_misses_ = 0;
  std::uint64_t last_llc_misses_ = 0;
  Cycles last_mem_stall_ = 0;
  std::map<std::pair<Addr, ThreadId>, Cycles> hold_since_;
};

}  // namespace tsxhpc::sim
