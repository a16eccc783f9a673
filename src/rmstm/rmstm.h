// RMS-TM benchmark suite (Kestor et al. [16]), re-implemented against the
// simulator (Section 4.3 / Figure 3).
//
// Unlike STAMP, RMS-TM adapts *existing* fine-grained-lock applications:
// critical sections have moderate footprints, no accesses are annotated,
// and the workloads perform native memory allocation and file I/O inside
// critical sections (the paper disables TM-MEM / TM-FILE, so those system
// calls happen inside transactional regions and force early fallback).
//
// Schemes compared, as in Figure 3:
//   fgl - the application's original fine-grained locks
//   sgl - every critical section maps to ONE global lock
//   tsx - the same single-global-lock sections, elided with RTM
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/machine.h"
#include "sync/elision.h"

namespace tsxhpc::rmstm {

enum class Scheme { kFgl, kSgl, kTsx };

const char* to_string(Scheme s);

struct Config {
  Scheme scheme = Scheme::kFgl;
  int threads = 1;
  std::uint64_t seed = 7;
  double scale = 1.0;
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
};

Result run_apriori(const Config& cfg);
Result run_scalparc(const Config& cfg);
Result run_utilitymine(const Config& cfg);
Result run_fluidanimate(const Config& cfg);

const std::vector<Workload>& all_workloads();

}  // namespace tsxhpc::rmstm
