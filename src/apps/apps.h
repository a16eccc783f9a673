// The six real-world HPC workloads of Table 2 (Section 5), each implemented
// with the synchronization variants the paper compares:
//
//   baseline     - the application's original synchronization (per-entity
//                  locks, LOCK-prefixed atomics, or lock-free algorithms)
//   tsx.init     - the straightforward TSX port: critical sections /
//                  atomics / lock-free algorithms become single-global-lock
//                  sections elided with RTM (Section 5.2), including
//                  lockset elision where the original took several locks
//   tsx.coarsen  - plus transactional coarsening (static merging of
//                  adjacent updates and/or dynamic batching with a
//                  granularity knob; Section 5.2.2 and Table 2)
//   conflictfree - the alternative conflict-free scheme where the paper
//                  evaluates one (histogram: privatization; physicsSolver:
//                  barrier groups; Figure 5)
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/machine.h"
#include "sync/elision.h"

namespace tsxhpc::apps {

enum class Variant {
  kBaseline,
  kTsxInit,
  kTsxCoarsen,
  kConflictFree,
};

const char* to_string(Variant v);

struct Config {
  Variant variant = Variant::kBaseline;
  int threads = 1;
  std::uint64_t seed = 3;
  double scale = 1.0;
  /// Dynamic-coarsening batch size (TXN_GRAN in Listing 3). 0 = the
  /// workload's default. Only meaningful for kTsxCoarsen.
  std::size_t gran = 0;
  /// Telemetry label for the runs this invocation records (carried into
  /// Machine::run via RunSpec; empty = telemetry default naming).
  std::string run_label;
  sim::MachineConfig machine{};
};

struct Result {
  sim::Cycles makespan = 0;
  sim::RunStats stats;
  std::uint64_t checksum = 0;
};

using WorkloadFn = std::function<Result(const Config&)>;

struct Workload {
  std::string name;
  WorkloadFn fn;
  bool has_conflict_free;  // Figure 5 alternative exists
};

Result run_graphcluster(const Config& cfg);
Result run_ua(const Config& cfg);
Result run_physics(const Config& cfg);
Result run_nufft(const Config& cfg);
Result run_histogram(const Config& cfg);
Result run_canneal(const Config& cfg);

const std::vector<Workload>& all_workloads();

}  // namespace tsxhpc::apps
