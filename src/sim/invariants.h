// The one invariant checker and the one loader for tsxhpc artifacts. Every
// reconciliation rule the telemetry counters promise (cycle buckets, cache
// levels, policy decisions, interval samples, the cc block, set stats,
// topology) lives in one registry in invariants.cc and runs over a parsed
// artifact: per run in a telemetry artifact, per cell and run in a sweep
// grid. The registry reads through the strict lookups of sim/json_parse.h,
// so the keys it reads are the schema: only `cc` (TM runs) and `set_stats`
// (--set-stats runs) may be absent, and any other missing or mistyped
// field is a JsonError naming its path.
//
// tsx_report's default mode prints the findings and exits 1 on any, and
// ctest runs it on every committed baseline and every bench's --quick
// output (`ctest -L 'baseline_test|invariant_test'`).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/json_parse.h"

namespace tsxhpc::sim {

class Telemetry;

/// One broken rule: where (cell, run, subject), which rule, and the two
/// values that should have reconciled.
struct Finding {
  std::string cell;     // sweep-grid cell label; empty in a flat artifact
  std::string run;      // run label
  std::size_t run_index = 0;  // position in its telemetry's "runs" array
  std::string subject;  // "thread 2", "site 0x40", "level llc", ... or ""
  std::string rule;     // the relation that failed, e.g. "a == b"
  std::uint64_t lhs = 0;
  std::uint64_t rhs = 0;

  /// One line: "cell C run R thread T: <rule>: <lhs> vs <rhs>".
  std::string str() const;
};

/// Check every run of a telemetry artifact or every cell of a sweep grid.
/// Throws JsonError unless each telemetry is of kTelemetrySchema.
std::vector<Finding> check_invariants(const JsonValue& doc);

/// Check an in-process Telemetry through its serialized artifact, the same
/// bytes --json writes.
std::vector<Finding> check_invariants(const Telemetry& tel);

/// Parse `text` and run the registry once: the one loader of tsx_report,
/// tools/sweep and bench --report. False with *error set ("parse error: ..."
/// or "<path>: <problem>") on a malformed or partial artifact or another
/// schema version; findings are not load errors; they land in *findings
/// when it is given, for the renderers to print.
bool load_artifact(std::string_view text, JsonValue& doc, std::string* error,
                   std::vector<Finding>* findings = nullptr);

/// Findings one per line (empty when there are none), for test messages.
std::string to_string(const std::vector<Finding>& findings);

}  // namespace tsxhpc::sim
