// CLOMP-TM-style synthetic mesh-update benchmark (Schindewolf et al. [23],
// as used in the paper's Section 4.1 / Figure 1).
//
// An unstructured mesh is divided into partitions (one per thread), each
// subdivided into zones. Every zone is pre-wired to deposit a value into a
// set of *scatter zones*: an update reads the scatter zone's coordinate,
// computes, and deposits the new value back. Deposits must be synchronized;
// the benchmark compares synchronization schemes:
//
//   Small Atomic   - one LOCK-prefixed add per deposit (#pragma omp atomic)
//   Small Critical - one global-lock critical section per deposit
//   Large Critical - one global-lock critical section per zone (batched)
//   Small TM       - one elided transactional region per deposit
//   Large TM       - one elided transactional region per zone (batched)
//
// Figure 1's configuration: threads do not contend for memory locations
// (scatter targets stay within the updating thread's partition) and
// HyperThreading is disabled (4 threads on 4 cores).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine.h"
#include "sync/elision.h"

namespace tsxhpc::clomp {

enum class Scheme {
  kSerial,
  kSmallAtomic,
  kSmallCritical,
  kLargeCritical,
  kSmallTM,
  kLargeTM,
};

const char* to_string(Scheme s);

struct Config {
  int threads = 4;
  int zones_per_thread = 64;
  int scatters_per_zone = 4;
  int repetitions = 20;  // full mesh sweeps
  /// Cycles of index/value computation accompanying each scatter update.
  sim::Cycles compute_per_update = 15;
  /// Fraction of scatter targets wired into *another* thread's partition
  /// (0 reproduces Figure 1's no-contention setup).
  double cross_partition_fraction = 0.0;
  std::uint64_t seed = 42;
  /// Telemetry label for the runs this invocation records (carried into
  /// Machine::run via RunSpec; empty = telemetry default naming).
  std::string run_label;
  sim::MachineConfig machine{};
};

struct Result {
  Scheme scheme;
  sim::Cycles makespan = 0;
  sim::RunStats stats;
  /// Sum over all zone values after the run; scheme-independent for a given
  /// (seed, geometry): used to verify synchronization correctness.
  std::uint64_t checksum = 0;
  std::uint64_t total_updates = 0;
};

/// Run one scheme. The serial reference uses the same total work on one
/// thread with no synchronization.
Result run(const Config& cfg, Scheme scheme);

/// Speedup of `scheme` at cfg.threads over the serial version (Figure 1's
/// Y axis).
double speedup_vs_serial(const Config& cfg, Scheme scheme);

}  // namespace tsxhpc::clomp
