// The benchmark's workloads: fixed, ordered lists of simulation cells. A
// cell is one call into a public entry point of the simulator
// (stamp::all_workloads()[i].fn, apps::all_workloads()[i].fn, or
// sim::Machine::run for the numa64 pair-sharing loop). One *pass* runs every
// cell of a workload once, in order.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/stats.h"
#include "sim/telemetry.h"

namespace tsxhpc::perfbench {

/// Everything a cell's simulation returns that the output check compares.
/// All fields are simulated (deterministic) quantities.
struct CellResult {
  enum Field : std::size_t {
    kMakespan,
    kMemAccesses,
    kTxStarted,
    kTxCommitted,
    kAbortConflict,
    kAbortCapacityWrite,
    kAbortExplicit,
    kAbortSyscall,
    kAbortNesting,
    kAbortLockBusy,
    kAbortCapacityRead,
    kChecksum,
    kThreadCycles,
    kL1Hits,
    kLlcHits,
    kLlcMisses,
    kXfers,
    kTxCycles,
    kCcStarts,
    kCcCommits,
    kNumFields,
  };
  std::array<std::uint64_t, kNumFields> v{};

  std::uint64_t operator[](Field f) const { return v[f]; }
  std::uint64_t capacity_aborts() const {
    return v[kAbortCapacityWrite] + v[kAbortCapacityRead];
  }

  static const char* field_name(std::size_t f);
};

struct Cell {
  std::string name;    // "stamp/bayes/tsx/t4", "numa64/scatter/s8"
  std::string group;   // span group: "stamp.tsx", "apps.tsx-init", ...
  std::string kernel;  // checksum-agreement key: "stamp/bayes", "apps/ua"
  /// The workload's defining property: a hardware transaction is live in
  /// this cell (tx_started > 0) or never is (tx_started == 0).
  bool transactional = false;
  /// The checksum counts committed transactions (numa64), so it must equal
  /// tx_committed instead of agreeing across cells of one kernel.
  bool checksum_counts_commits = false;
  /// Run the cell once. `tel` (may be null) is attached through
  /// MachineConfig::telemetry to every Machine the cell builds.
  std::function<CellResult(sim::Telemetry* tel)> run;
};

/// Seed-derived inputs. `seed` 1 is the default: it reproduces fig2_stamp's
/// STAMP seed, fig4_realworld's apps seed and ablation_topology's layout.
struct Seeds {
  std::uint64_t stamp;
  std::uint64_t apps;
  std::uint64_t numa64;
  static Seeds from(std::uint64_t seed) { return {seed, seed + 2, seed}; }
};

inline constexpr std::uint64_t kDefaultSeed = 1;

const std::vector<std::string>& workload_names();

/// The cells of `workload`, in pass order.
std::vector<Cell> make_cells(const std::string& workload, const Seeds& seeds);

/// The machine every rtm/no_rtm cell runs on (paper's 4-core Haswell model,
/// fiber backend regardless of $TSXHPC_BACKEND).
sim::MachineConfig default_machine();

/// The numa64 machine: 64 single-SMT cores on 2 sockets.
sim::MachineConfig numa64_machine(int slices, sim::MapPolicy map);

}  // namespace tsxhpc::perfbench
