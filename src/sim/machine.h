// Machine: the top-level simulator object. Owns the memory system, the
// futex table, and per-run engines; provides the parallel-region entry
// points that workloads and benchmarks call.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/context.h"
#include "sim/engine.h"
#include "sim/futex.h"
#include "sim/memory.h"
#include "sim/stats.h"
#include "sim/telemetry.h"

namespace tsxhpc::sim {

/// Everything that defines one parallel region: how many simulated threads,
/// what each runs, and how the run is labeled in telemetry artifacts.
/// Exactly one of `body` (SPMD: every thread runs it) or `bodies` (one
/// entry per thread; overrides `threads`) must be set.
struct RunSpec {
  int threads = 1;
  std::function<void(Context&)> body{};
  std::vector<std::function<void(Context&)>> bodies{};
  /// Telemetry run label. Replaces the old BenchIo::label →
  /// set_next_run_label side channel: the label now rides with the run it
  /// names. Empty keeps the telemetry default ("run_<seq>", or the last
  /// explicit label with a "#N" suffix).
  std::string label{};
};

class Machine {
 public:
  explicit Machine(MachineConfig cfg = MachineConfig{});

  const MachineConfig& config() const { return cfg_; }
  MemorySystem& mem() { return *mem_; }
  SharedHeap& heap() { return mem_->heap(); }
  FutexTable& futex() { return futex_; }

  /// The unified allocation entry point (see sim/alloc.h). A named spec is
  /// placed by the configured AllocStrategy and registered so telemetry
  /// attributes conflict/capacity aborts on its lines back to `spec.name`;
  /// an anonymous spec is bump-placed. align 0 defaults to one cache line
  /// (avoids accidental false sharing; set align explicitly to study it).
  Addr alloc(AllocSpec spec) {
    if (spec.align == 0) spec.align = 64;
    return heap().allocate(spec);
  }

  /// Anonymous allocation (cache-line aligned by default).
  Addr alloc(std::size_t bytes, std::size_t align = 64) {
    return alloc(AllocSpec{{}, bytes, align, AllocHint::kAuto});
  }


  /// Run one parallel region. Statistics are reset at region entry; returns
  /// per-thread stats and the makespan.
  RunStats run(const RunSpec& spec);

  /// Engine of the in-flight run (used by Context; null between runs).
  Engine* engine() { return engine_.get(); }

  /// Attach/detach a telemetry collector (null = off; default). Also set
  /// automatically from MachineConfig::telemetry at construction.
  void set_telemetry(Telemetry* tel);
  Telemetry* telemetry() { return telemetry_; }

  std::vector<ThreadStats>& stats() { return stats_; }

  /// Convert cycles to seconds using the configured frequency (bandwidth
  /// reporting for Figure 6).
  double seconds(Cycles c) const { return static_cast<double>(c) / (cfg_.ghz * 1e9); }

 private:
  MachineConfig cfg_;
  std::vector<ThreadStats> stats_;
  std::unique_ptr<MemorySystem> mem_;
  FutexTable futex_;
  std::unique_ptr<Engine> engine_;
  Telemetry* telemetry_ = nullptr;
};

}  // namespace tsxhpc::sim
