// STAMP benchmark suite (Minh et al. [19]), re-implemented against the TM
// macro layer at reduced input scale (Section 4.2 / Figure 2 / Table 1).
//
// Each workload preserves the original's *synchronization structure*: which
// data structures its transactions touch, the read/write footprint class of
// a transaction, its conflict pattern, and which accesses are annotated for
// the STM (TM_SHARED_*) versus left plain. That is what the paper's results
// depend on. Input sizes are scaled so a full Figure 2 sweep runs in
// seconds; EXPERIMENTS.md records the scaling.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/machine.h"
#include "tmlib/tm.h"

namespace tsxhpc::stamp {

using tmlib::Backend;

struct Config {
  Backend backend = Backend::kSgl;
  int threads = 1;
  std::uint64_t seed = 1;
  /// Input scale multiplier (1.0 = the default reduced inputs).
  double scale = 1.0;
  /// Telemetry label for the runs this invocation records (carried into
  /// Machine::run via RunSpec; empty = telemetry default naming).
  std::string run_label;
  sim::MachineConfig machine{};
};

struct Result {
  sim::Cycles makespan = 0;
  sim::RunStats stats;  // hardware (tsx) counters
  /// Concurrency-control counters of the scheme that ran (the telemetry
  /// `cc` block's content, harvested from the TmRuntime).
  sim::CcStats cc;
  /// Order-insensitive verification value; must match across backends and
  /// thread counts for a given (workload, seed, scale).
  std::uint64_t checksum = 0;

  /// Abort rate (%) of whichever TM ran, in Table 1's definition.
  double abort_rate_pct(Backend b) const {
    if (tmlib::is_stm(b)) return cc.abort_rate_pct();
    return stats.abort_rate_pct();
  }
};

using WorkloadFn = std::function<Result(const Config&)>;

struct Workload {
  std::string name;
  WorkloadFn fn;
};

// The eight STAMP workloads.
Result run_bayes(const Config& cfg);
Result run_genome(const Config& cfg);
Result run_intruder(const Config& cfg);
Result run_kmeans(const Config& cfg);
Result run_labyrinth(const Config& cfg);
Result run_ssca2(const Config& cfg);
Result run_vacation(const Config& cfg);
Result run_yada(const Config& cfg);

/// All workloads in the paper's Figure 2 / Table 1 order.
const std::vector<Workload>& all_workloads();

}  // namespace tsxhpc::stamp
