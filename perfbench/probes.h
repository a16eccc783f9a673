// Per-layer probes for the traced run: each drives one layer's public
// functions directly (Engine through Machine::run, MemorySystem,
// CacheLevel, Context, tmlib::TmThread) and reports host nanoseconds per
// call. Every probe is recorded as a span.
#pragma once

#include <vector>

#include "perfbench/spans.h"
#include "sim/config.h"

namespace tsxhpc::perfbench {

/// Run every layer probe on machines built from `cfg` (the workload's
/// MachineConfig) and append the metrics to `out`.
void run_layer_probes(const sim::MachineConfig& cfg, Tracer& tr,
                      std::vector<Metric>& out);

/// Host ns per iteration of a fixed pure-CPU loop (median of several
/// repetitions): the host-noise reference.
double calibration_ns();

}  // namespace tsxhpc::perfbench
