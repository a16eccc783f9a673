// Declarative parameter-grid sweeps. A sweep spec (tsxhpc-sweepspec-v1 JSON)
// names a bench binary, the flag axes to cross (scheme, policy, threads,
// ...), common passthrough flags, and per-scale flag sets. This header owns
// the pure parts of the pipeline — spec parsing/validation, deterministic
// cell expansion, and merging per-cell telemetry artifacts into one
// tsxhpc-sweep-v1 grid artifact — so tools/sweep (the multi-process
// orchestrator), tools/tsx_report (grid views + grid diff) and the tests all
// agree on cell naming and artifact layout by construction.
//
// Determinism contract: expand_cells() is a stable cross product (axes in
// spec order, values in spec order, last axis fastest), and merge_sweep()
// splices each cell's artifact bytes verbatim in expansion order. The merged
// artifact is therefore byte-identical however the cells were sharded across
// processes — committed sweep baselines rely on this.
#pragma once

#include <string>
#include <vector>

#include "sim/json_parse.h"

namespace tsxhpc::sim {

inline constexpr const char* kSweepSpecSchema = "tsxhpc-sweepspec-v1";
inline constexpr const char* kSweepSchema = "tsxhpc-sweep-v1";

struct SweepAxis {
  std::string name;                 // axis name, e.g. "threads"
  std::string flag;                 // child flag, e.g. "--threads"
  std::vector<std::string> values;  // axis values, spec order
};

struct SweepSpec {
  std::string name;   // sweep name, e.g. "fig2_quick"
  std::string bench;  // bench binary name (the orchestrator resolves a path)
  std::vector<std::string> args;        // passed to every cell
  std::vector<std::string> quick_args;  // appended at scale "quick"
  std::vector<std::string> full_args;   // appended at scale "full"
  std::vector<SweepAxis> axes;

  /// Cross-product size.
  std::size_t cell_count() const {
    std::size_t n = 1;
    for (const SweepAxis& a : axes) n *= a.values.size();
    return n;
  }
  /// args + the per-scale flags ("quick" or "full").
  std::vector<std::string> args_for_scale(const std::string& scale) const;
};

/// Parse + validate a tsxhpc-sweepspec-v1 document. False (with *error set)
/// on schema mismatch, missing/mistyped/empty fields, duplicate axis names or
/// values.
bool parse_sweep_spec(const JsonValue& doc, SweepSpec& spec,
                      std::string* error);

struct SweepCell {
  std::string label;                // "workload=genome/scheme=tsx/threads=4"
  std::vector<std::string> coords;  // one value per spec axis, axis order
  std::vector<std::string> flags;   // "--workload=genome", "--scheme=tsx", ...
};

/// Deterministic, stable-ordered cross-product expansion. These labels name
/// the cells in committed sweep baselines — never reorder.
std::vector<SweepCell> expand_cells(const SweepSpec& spec);

/// Assemble the merged tsxhpc-sweep-v1 artifact. `cell_artifacts[i]` holds
/// the raw JSON bytes of `cells[i]`'s telemetry artifact, spliced verbatim.
/// `effective_args` records the common argv the orchestrator actually passed
/// (args + scale flags). The caller validates the artifacts first.
std::string merge_sweep(const SweepSpec& spec, const std::string& scale,
                        const std::vector<std::string>& effective_args,
                        const std::vector<SweepCell>& cells,
                        const std::vector<std::string>& cell_artifacts);

}  // namespace tsxhpc::sim
