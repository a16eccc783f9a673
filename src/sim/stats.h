// Per-thread and aggregate statistics. This is the reproduction's stand-in
// for the Linux `perf` TSX event counters the paper collects (Table 1).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.h"

namespace tsxhpc::sim {

/// Where a simulated cycle went. Every cycle a thread's virtual clock
/// advances is attributed to exactly one bucket, so per-thread buckets sum
/// to the thread's end_cycle — the invariant tsx_report's cycle-accounting
/// table relies on (and tests assert).
enum class CycleBucket : std::uint8_t {
  kWork = 0,      // useful non-transactional execution (compute, L1 hits)
  kTxCommitted,   // inside transactions that eventually committed
  kTxWasted,      // inside transactions that aborted, plus rollback cost
  kLockWait,      // lock-acquire spinning, elision backoff, futex blocking
  kFallback,      // serialized execution under an elision fallback lock
  kMemStall,      // beyond-L1 portion of non-transactional memory accesses
  kNumBuckets,
};

inline const char* to_string(CycleBucket b) {
  switch (b) {
    case CycleBucket::kWork: return "work";
    case CycleBucket::kTxCommitted: return "tx_committed";
    case CycleBucket::kTxWasted: return "tx_wasted";
    case CycleBucket::kLockWait: return "lock_wait";
    case CycleBucket::kFallback: return "fallback";
    case CycleBucket::kMemStall: return "mem_stall";
    default: return "?";
  }
}

/// Counters for one hardware thread. All counters are cumulative over a run.
struct ThreadStats {
  // Transactional execution (RTM).
  std::uint64_t tx_started = 0;
  std::uint64_t tx_committed = 0;
  std::array<std::uint64_t, static_cast<size_t>(AbortCause::kNumCauses)>
      tx_aborted{};  // indexed by AbortCause
  std::uint64_t tx_read_lines_evicted = 0;  // moved to secondary tracking
  std::uint64_t tx_doomed_by_remote = 0;    // requester-wins victims
  // Transactional cycle accounting (perf's cycles-t / cycles-ct analogue):
  // cycles spent inside regions that eventually committed vs. aborted.
  Cycles tx_cycles_committed = 0;
  Cycles tx_cycles_wasted = 0;
  /// Inter-retry backoff charged by the elision policy (Context::tx_backoff).
  /// A sub-counter of the kTxWasted bucket: backoff is time lost *because* a
  /// transaction aborted, not lock-hold contention, so it books as waste.
  Cycles backoff_cycles = 0;

  // Full cycle accounting: every clock advance lands in exactly one bucket,
  // so the buckets sum to end_cycle (see CycleBucket).
  std::array<Cycles, static_cast<size_t>(CycleBucket::kNumBuckets)>
      cycles_by_bucket{};

  // Memory system, per hierarchy level. Every timed access is served by
  // exactly one level, so mem_accesses == l1_hits + l1_misses and
  // l1_misses == xfers_in + llc_hits + llc_misses (sim/invariants.h
  // checks both).
  std::uint64_t mem_accesses = 0;  // total timed cache accesses
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l1_evictions = 0;   // valid lines displaced from our L1
  std::uint64_t llc_hits = 0;       // served by the shared LLC
  std::uint64_t llc_misses = 0;     // served by memory (DRAM endpoint)
  std::uint64_t llc_evictions = 0;  // LLC victims displaced by our fills
  std::uint64_t xfers_in = 0;  // lines transferred from another core
  std::uint64_t atomics = 0;
  // Interconnect hops (telemetry v6). Zero on a 1-socket/1-slice machine.
  // hop_cycles is a sub-component of the access latencies already booked to
  // the serving level, and reconciles exactly:
  //   hop_cycles == slice_hops * lat_hop_slice + socket_hops * lat_hop_socket
  std::uint64_t slice_hops = 0;   // same-socket, non-local-slice accesses
  std::uint64_t socket_hops = 0;  // cross-socket slice/DRAM/forward hops
  Cycles hop_cycles = 0;
  // Beyond-L1 stall cycles by the level that served the access; sums to the
  // kMemStall bucket (stalls rerouted to lock-wait/fallback are excluded,
  // exactly as they are from the bucket).
  std::array<Cycles, static_cast<size_t>(MemLevel::kNumLevels)>
      mem_stall_by_level{};

  // Kernel interaction.
  std::uint64_t syscalls = 0;
  std::uint64_t futex_waits = 0;
  std::uint64_t futex_wakes = 0;

  // Final virtual clock when the thread body returned.
  Cycles end_cycle = 0;

  std::uint64_t tx_aborts_total() const {
    std::uint64_t n = 0;
    for (auto a : tx_aborted) n += a;
    return n;
  }

  Cycles bucket(CycleBucket b) const {
    return cycles_by_bucket[static_cast<size_t>(b)];
  }
  Cycles cycles_total() const {
    Cycles n = 0;
    for (auto c : cycles_by_bucket) n += c;
    return n;
  }

  /// Wasted-cycle fraction in percent: aborted-transaction cycles over all
  /// transactional cycles (the quantity tsx_report regresses on).
  double wasted_cycle_pct() const {
    const double tx = static_cast<double>(tx_cycles_committed +
                                          tx_cycles_wasted);
    return tx == 0 ? 0.0
                   : 100.0 * static_cast<double>(tx_cycles_wasted) / tx;
  }

  /// Abort rate in percent, as reported in the paper's Table 1:
  /// aborts / started transactions.
  double abort_rate_pct() const {
    return tx_started == 0
               ? 0.0
               : 100.0 * static_cast<double>(tx_aborts_total()) /
                     static_cast<double>(tx_started);
  }
};

/// Per-LLC-slice event counters (telemetry v6), charged by MemorySystem at
/// the same sites as the ThreadStats level totals. Summed over all slices,
/// hits/misses/evictions/xfers equal the run's llc_hits/llc_misses/
/// llc_evictions/xfers_in totals exactly — the v6 decomposition invariant
/// sim/invariants.h checks.
struct SliceStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t xfers = 0;
};

/// Per-socket event counters (telemetry v6), keyed by the *requesting*
/// thread's socket. accesses sums to mem_accesses; dram_local + dram_remote
/// sums to llc_misses; slice_hops/socket_hops decompose the per-thread hop
/// totals by requester socket.
struct SocketStats {
  std::uint64_t accesses = 0;
  std::uint64_t dram_local = 0;   // DRAM fills homed on the requester socket
  std::uint64_t dram_remote = 0;  // DRAM fills homed on a remote socket
  std::uint64_t slice_hops = 0;
  std::uint64_t socket_hops = 0;
};

/// Aggregate over all threads of a run.
struct RunStats {
  std::vector<ThreadStats> threads;

  /// Simulated execution time of the parallel region: the maximum end cycle
  /// over all participating threads.
  Cycles makespan = 0;

  ThreadStats total() const {
    ThreadStats t;
    for (const auto& s : threads) {
      t.tx_started += s.tx_started;
      t.tx_committed += s.tx_committed;
      for (size_t i = 0; i < t.tx_aborted.size(); ++i)
        t.tx_aborted[i] += s.tx_aborted[i];
      t.tx_read_lines_evicted += s.tx_read_lines_evicted;
      t.tx_doomed_by_remote += s.tx_doomed_by_remote;
      t.tx_cycles_committed += s.tx_cycles_committed;
      t.tx_cycles_wasted += s.tx_cycles_wasted;
      t.backoff_cycles += s.backoff_cycles;
      for (size_t i = 0; i < t.cycles_by_bucket.size(); ++i)
        t.cycles_by_bucket[i] += s.cycles_by_bucket[i];
      t.mem_accesses += s.mem_accesses;
      t.l1_hits += s.l1_hits;
      t.l1_misses += s.l1_misses;
      t.l1_evictions += s.l1_evictions;
      t.llc_hits += s.llc_hits;
      t.llc_misses += s.llc_misses;
      t.llc_evictions += s.llc_evictions;
      t.xfers_in += s.xfers_in;
      t.atomics += s.atomics;
      t.slice_hops += s.slice_hops;
      t.socket_hops += s.socket_hops;
      t.hop_cycles += s.hop_cycles;
      for (size_t i = 0; i < t.mem_stall_by_level.size(); ++i)
        t.mem_stall_by_level[i] += s.mem_stall_by_level[i];
      t.syscalls += s.syscalls;
      t.futex_waits += s.futex_waits;
      t.futex_wakes += s.futex_wakes;
    }
    return t;
  }

  double abort_rate_pct() const { return total().abort_rate_pct(); }
};

}  // namespace tsxhpc::sim
