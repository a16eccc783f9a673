// Machine configuration: core/cache geometry and cycle cost model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/alloc.h"
#include "sim/backend.h"
#include "sim/types.h"

namespace tsxhpc::sim {

class Telemetry;

/// Geometry and latency model of the simulated machine. Defaults model the
/// paper's part: an Intel 4th Generation Core (Haswell) with 4 cores x 2
/// HyperThreads and a 32 KB, 8-way, 64 B-line L1 data cache per core.
///
/// Latencies are first-order approximations of Haswell; the reproduction
/// depends on their *ratios* (atomic vs. transaction overhead, L1 hit vs.
/// cross-core transfer), not their absolute values.
/// Thread-to-core placement policy (paper Section 3: "we use thread
/// affinity to bind threads to cores so that as many cores are used as
/// possible").
enum class Affinity {
  kSpreadCores,  // fill distinct cores first (the paper's policy)
  kPackCores,    // fill HyperThread siblings first (for SMT ablations)
};

/// Thread/data mapping policy on a multi-socket topology (the benches'
/// `--map=` flag). The policy picks the *socket* a thread lands on and the
/// socket a DRAM line is homed to; within a socket, the Affinity policy
/// still orders cores and SMT siblings. On a single-socket machine all
/// three policies degenerate to the same historic placement, so the default
/// configuration is byte-identical to the pre-topology model.
enum class MapPolicy : std::uint8_t {
  kCompact,       // threads fill sockets in order; lines interleave
  kScatter,       // threads round-robin across sockets; lines interleave
  kSharingAware,  // compact placement + first-touch line homing
};

inline const char* to_string(MapPolicy map) {
  switch (map) {
    case MapPolicy::kCompact: return "compact";
    case MapPolicy::kScatter: return "scatter";
    case MapPolicy::kSharingAware: return "sharing-aware";
  }
  return "?";
}

/// Parse a `--map=` value; returns false (leaving `out` untouched) on an
/// unknown name so callers can print the valid set.
inline bool map_policy_from_string(const std::string& s, MapPolicy& out) {
  if (s == "compact") out = MapPolicy::kCompact;
  else if (s == "scatter") out = MapPolicy::kScatter;
  else if (s == "sharing-aware") out = MapPolicy::kSharingAware;
  else return false;
  return true;
}

/// Machine topology beyond the single shared LLC: sockets, LLC slices and
/// the interconnect hop costs between them. The default (1 socket, 1 slice)
/// is the paper's machine and reproduces the pre-topology model exactly: no
/// hop is ever charged and the slice hash is the identity.
///
/// Slices model a real sliced LLC (one slice per core complex on Intel
/// parts): each slice has the full configured `llc_bytes` geometry, so
/// adding slices scales aggregate LLC capacity the way adding core tiles
/// does on hardware — and each slice stays large enough to back an L1
/// inclusively. A line's slice is an address hash (llc_slice_of_line);
/// the coherence directory for a line lives in its slice's entries.
struct Topology {
  int num_sockets = 1;
  /// Cores per socket; 0 derives num_cores / num_sockets. When nonzero it
  /// must agree with num_cores (MemorySystem validates).
  int cores_per_socket = 0;
  /// Total LLC slices across the machine; must be a multiple of
  /// num_sockets (each socket hosts llc_slices / num_sockets of them).
  int llc_slices = 1;
  /// Extra cycles to reach a non-local slice on the requester's socket
  /// (ring/mesh hop, Haswell-order magnitude).
  Cycles lat_hop_slice = 12;
  /// Extra cycles to cross the socket interconnect (QPI-order magnitude):
  /// charged for remote-socket slices, remote-homed DRAM lines, and dirty
  /// lines forwarded from a remote socket's core.
  Cycles lat_hop_socket = 140;
  /// Thread/data mapping policy (--map=).
  MapPolicy map = MapPolicy::kCompact;
};

/// Address-hash slice selection: which LLC slice owns `line`. A pure
/// function of (line, slices) — an XOR-fold mix like Intel's slice hash —
/// so it is stable across runs, hosts and backends, and the identity on a
/// single-slice machine. Shared by MemorySystem (residency, directory,
/// hop charging) and AllocStrategy (slice-aware coloring).
inline int llc_slice_of_line(Addr line, int slices) {
  if (slices <= 1) return 0;
  std::uint64_t z = line * 0x9E3779B97F4A7C15ULL;
  z ^= z >> 29;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 32;
  return static_cast<int>(z % static_cast<std::uint64_t>(slices));
}

/// Which retry/backoff/fallback brain the elided primitives use
/// (sync::make_tx_policy). Lives on the machine config so one `--policy=`
/// flag reaches every ElidedLock/ElidedLockSet/TxMonitor a workload builds,
/// the same way the telemetry sink and backend do.
enum class TxPolicyKind : std::uint8_t {
  kPaper,         // Section 3 handler, bit-for-bit the pre-seam behaviour
  kNoHint,        // ignore the abort-status retry hint
  kExpoBackoff,   // exponential conflict backoff + deterministic jitter
  kAdaptiveSite,  // glibc-style per-site skip, doubling windows, all kinds
};

inline const char* to_string(TxPolicyKind kind) {
  switch (kind) {
    case TxPolicyKind::kPaper: return "paper";
    case TxPolicyKind::kNoHint: return "no-hint";
    case TxPolicyKind::kExpoBackoff: return "expo-backoff";
    case TxPolicyKind::kAdaptiveSite: return "adaptive-site";
  }
  return "?";
}

/// Parse a `--policy=` value; returns false (leaving `out` untouched) on an
/// unknown name so callers can print the valid set.
inline bool tx_policy_from_string(const std::string& s, TxPolicyKind& out) {
  if (s == "paper") out = TxPolicyKind::kPaper;
  else if (s == "no-hint") out = TxPolicyKind::kNoHint;
  else if (s == "expo-backoff") out = TxPolicyKind::kExpoBackoff;
  else if (s == "adaptive-site") out = TxPolicyKind::kAdaptiveSite;
  else return false;
  return true;
}

struct MachineConfig {
  // --- Topology -----------------------------------------------------------
  int num_cores = 4;
  int smt_per_core = 2;
  Affinity affinity = Affinity::kSpreadCores;
  /// Sockets, LLC slices, interconnect hops and the thread/data map. The
  /// default single-socket single-slice topology reproduces the historic
  /// model bit-for-bit.
  Topology topology;

  // --- L1 data cache (transactional buffering domain) ----------------------
  std::uint32_t l1_bytes = 32 * 1024;
  std::uint32_t l1_ways = 8;
  std::uint32_t line_bytes = 64;

  // --- Shared last-level cache ----------------------------------------------
  /// The LLC is a real modeled level (sets/ways/LRU, inclusive of the L1s)
  /// shared by all cores; the coherence directory lives in its entries. Like
  /// the L1 it is a *scaled* model: the workloads are scaled down from the
  /// paper's sizes, so the LLC is too (a full 8 MB Haswell L3 would never
  /// evict a scaled working set). Evicting a transactionally *read* line
  /// from the LLC is what exposes the secondary-tracking imprecision, so
  /// read-set capacity is a function of this geometry (see
  /// read_evict_abort_prob below and bench/ablation_hierarchy.cc).
  /// Default 40 KB / 10-way (64 sets): ~1.25x one L1, tuned so the scaled
  /// STAMP read sets overflow it the way the paper's full-size sets overflow
  /// the real tracking structure — labyrinth/bayes die single-threaded,
  /// vacation partially, everything else fits (Table 1 ordering).
  std::uint32_t llc_bytes = 40 * 1024;
  std::uint32_t llc_ways = 10;

  // --- Memory access latencies (cycles) ------------------------------------
  Cycles lat_l1_hit = 4;
  Cycles lat_llc_hit = 36;          // LLC hit: on-chip, not in any L1
  /// LLC miss, served by DRAM. Deliberately below Haswell's ~190 cycles:
  /// the modeled LLC is scaled down with the workloads (see llc_bytes), so
  /// capacity misses are proportionally more frequent than on the real
  /// 8 MB L3 — a scaled-down penalty keeps the aggregate memory-stall
  /// share of the cycle budget (and thus the paper's relative scheme
  /// orderings in Figures 5/6) in the realistic range.
  Cycles lat_mem = 88;
  Cycles lat_xfer_clean = 70;       // line shared-in from another core
  Cycles lat_xfer_dirty = 84;       // dirty line forwarded from another core

  // --- Synchronization instruction costs (cycles) ---------------------------
  /// Extra cost of a LOCK-prefixed RMW on top of the memory access itself.
  Cycles lat_atomic_rmw = 20;
  /// XBEGIN retire cost (checkpoint registers, enter transactional mode).
  Cycles lat_xbegin = 32;
  /// XEND retire cost (commit, make write set visible).
  Cycles lat_xend = 24;
  /// Rollback cost on abort: discard write set, restore checkpoint, redirect
  /// to fallback ip. Charged once per abort, plus pipeline-refill effects.
  Cycles lat_abort = 150;
  /// Cost of a kernel entry/exit (futex, file IO, mmap...).
  Cycles lat_syscall = 900;
  /// Additional cost to block (context switch away) in futex-wait, and to be
  /// woken (scheduled back in). The paper observes this sleep/wake delay
  /// dominates the TCP/IP stack critical path (Section 6.2).
  Cycles lat_block = 1800;
  Cycles lat_wake = 1800;

  // --- Transactional execution model ---------------------------------------
  /// Maximum supported transaction nesting depth (flat nesting).
  int max_nest_depth = 7;
  /// Probability that evicting a transactionally *read* line from the LLC
  /// aborts the reading transaction. Section 2: read lines evicted from the
  /// L1 move to a secondary tracking structure "and may result in an abort
  /// at some later time" — on Haswell that structure is imprecise
  /// (bloom-filter-like), so large read sets abort even single-threaded
  /// (Table 1: vacation 38%, bayes 64%, labyrinth 87% at 1 thread). In the
  /// hierarchy model the L1->secondary handoff itself is free; it is losing
  /// the line from the *LLC* (the level backing the tracker) that risks the
  /// abort, so read-set capacity tracks LLC geometry. The decision is a
  /// deterministic hash of (line, event counter): reproducible across runs
  /// and hosts.
  double read_evict_abort_prob = 0.05;

  // --- Scheduler -----------------------------------------------------------
  /// A running thread keeps the token until its virtual clock exceeds the
  /// minimum runnable clock by this many cycles. Smaller = finer-grain
  /// interleaving (and slower simulation). Always deterministic.
  Cycles sched_quantum = 200;
  /// Hard per-run cap on any thread's virtual clock; exceeding it raises
  /// SimError (livelock / runaway guard). 0 disables the guard.
  Cycles max_cycles = 0;

  /// Simulated core frequency, used only to convert cycles to seconds when
  /// reporting bandwidth numbers (Figure 6).
  double ghz = 3.4;

  // --- Execution backend ----------------------------------------------------
  /// How simulated threads are multiplexed onto the host: cooperative
  /// fibers on one host thread (default; a token handoff is a userspace
  /// context switch) or one OS thread per simulated thread with condvar
  /// handoff (kept for differential testing). Both produce identical
  /// interleavings, telemetry and makespans; only host wall-clock differs.
  /// The process-wide default honours TSXHPC_BACKEND=fiber|thread.
  BackendKind backend = default_backend();
  /// Retry/backoff/fallback policy for every elided primitive built over
  /// this machine (the benches' --policy= flag). The knob selects the
  /// *brain* (sync::TxPolicy); the numbers (retry budget, backoff) come
  /// from each primitive's sync::ElisionPolicy.
  TxPolicyKind tx_policy = TxPolicyKind::kPaper;
  /// Placement strategy for named shared-heap allocations (the benches'
  /// --alloc= flag; see sim/alloc.h). kBump is bit-for-bit the historic
  /// layout — every committed telemetry baseline assumes it.
  AllocStrategyKind alloc_strategy = AllocStrategyKind::kBump;
  /// Stack bytes per fiber (fiber backend only). Fibers do not grow their
  /// stacks on demand the way OS threads do; raise this for workloads with
  /// deep recursion.
  std::size_t fiber_stack_bytes = 1024 * 1024;

  // --- Observability --------------------------------------------------------
  /// Optional telemetry sink. Riding on the config means every Machine a
  /// workload builds from this config reports to the same collector without
  /// threading an extra parameter through each workload entry point. Not
  /// owned; null (the default) disables all recording.
  Telemetry* telemetry = nullptr;

  /// Record per-cache-set counters (telemetry v6 `set_stats` block): per-set
  /// fills/hits/evictions/back-invalidations plus capacity-doom attribution,
  /// and per-object set spans. Off by default: the charging adds a counter
  /// bump per access, and the artifact grows by O(sets) per run.
  bool set_stats = false;

  int num_hw_threads() const { return num_cores * smt_per_core; }

  /// Cores per socket, resolving Topology::cores_per_socket = 0 to
  /// num_cores / num_sockets.
  int cores_per_socket() const {
    return topology.cores_per_socket > 0 ? topology.cores_per_socket
                                         : num_cores / topology.num_sockets;
  }
  int socket_of_core(int core) const { return core / cores_per_socket(); }
  int slices_per_socket() const {
    return topology.llc_slices / topology.num_sockets;
  }
  int socket_of_slice(int slice) const { return slice / slices_per_socket(); }
  /// The slice a core reaches without a hop: its socket's slices, assigned
  /// round-robin within the socket (core tiles pair with slice tiles).
  int local_slice_of_core(int core) const {
    return socket_of_slice_base(socket_of_core(core)) +
           (core % cores_per_socket()) % slices_per_socket();
  }
  int socket_of_slice_base(int socket) const {
    return socket * slices_per_socket();
  }
  int slice_of_line(Addr line) const {
    return llc_slice_of_line(line, topology.llc_slices);
  }

  /// Core hosting hardware thread t. The MapPolicy picks the socket
  /// (compact/sharing-aware fill sockets in order, scatter round-robins);
  /// the Affinity policy orders cores and SMT siblings within the socket.
  /// Under kSpreadCores a 4-thread run puts one thread on each core and an
  /// 8-thread run puts two; under kPackCores threads 0 and 1 are siblings.
  /// On one socket every map degenerates to the historic formula.
  int core_of(ThreadId t) const {
    const int sockets = topology.num_sockets;
    const int cps = cores_per_socket();
    int s, j;  // socket; thread index within the socket's fill order
    if (topology.map == MapPolicy::kScatter) {
      s = t % sockets;
      j = t / sockets;
    } else {
      const int per_socket = cps * smt_per_core;
      s = (t / per_socket) % sockets;
      j = t % per_socket;
    }
    const int local = affinity == Affinity::kSpreadCores
                          ? j % cps
                          : (j / smt_per_core) % cps;
    return s * cps + local;
  }

  std::uint32_t l1_sets() const { return l1_bytes / (l1_ways * line_bytes); }
  std::uint32_t llc_sets() const {
    return llc_bytes / (llc_ways * line_bytes);
  }
  Addr line_of(Addr a) const { return a / line_bytes; }
};

}  // namespace tsxhpc::sim
