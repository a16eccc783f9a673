// The three network-intensive PARSEC workloads of Section 6.2, organized
// client/server over the user-level stack:
//   netferret        similarity search: many small query/response messages
//                    (the workload that breaks tsx.abort in Figure 6)
//   netdedup         dedup/compress pipeline: client streams large chunks,
//                    the server fingerprints and compresses
//   netstreamcluster online clustering of streamed points
//
// Reported metric, as in the paper: server-side read bandwidth (the
// critical path of the execution).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sync/monitor.h"

namespace tsxhpc::netapps {

struct Config {
  sync::MonitorScheme scheme = sync::MonitorScheme::kMutex;
  /// Client/server pairs; total simulated threads = 2 * connections.
  int connections = 4;
  std::uint64_t seed = 11;
  double scale = 1.0;
  /// Telemetry label for the runs this invocation records (carried into
  /// Machine::run via RunSpec; empty = telemetry default naming).
  std::string run_label;
  sim::MachineConfig machine{};
};

struct Result {
  sim::Cycles makespan = 0;
  sim::RunStats stats;
  std::uint64_t server_bytes = 0;  // total payload received by servers
  double bandwidth_mbps = 0.0;     // server-side read bandwidth (MB/s)
  std::uint64_t checksum = 0;      // nonzero iff payload integrity held
};

using WorkloadFn = std::function<Result(const Config&)>;

struct Workload {
  std::string name;
  WorkloadFn fn;
};

Result run_netferret(const Config& cfg);
Result run_netdedup(const Config& cfg);
Result run_netstreamcluster(const Config& cfg);

const std::vector<Workload>& all_workloads();

}  // namespace tsxhpc::netapps
