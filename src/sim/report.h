// Human-readable analysis of tsxhpc artifacts: per-run telemetry reports
// (kTelemetrySchema) and grid views over merged sweep artifacts
// (kSweepSchema). Both consumers — the tools/tsx_report CLI (from a JSON
// file) and bench --report (from the in-process Telemetry, serialized and
// re-parsed) — load through load_artifact (sim/invariants.h) and render
// through this one code path, so the numbers they print are identical by
// construction. Every renderer reads through the strict lookups of
// sim/json_parse.h and builds its whole output before returning, so a
// missing or mistyped field throws JsonError and nothing partial is shown.
#pragma once

#include <string>
#include <vector>

#include "sim/invariants.h"
#include "sim/json_parse.h"

namespace tsxhpc::sim {

struct ReportOptions {
  std::size_t top_lines = 10;  // conflict/capacity lines to show per run
};

/// Regression thresholds for diff mode, in percentage points.
struct DiffThresholds {
  double abort_rate_pp = 1.0;
  double wasted_cycle_pp = 1.0;
};

/// True if a loaded artifact is a merged sweep grid, not flat telemetry.
bool is_sweep_doc(const JsonValue& doc);

/// Render the report for one parsed artifact, with a "!!" line per
/// finding — as load_artifact returned them — at the end of its run's cycle
/// table.
std::string render_report(const JsonValue& doc,
                          const std::vector<Finding>& findings,
                          const ReportOptions& opt = {});

/// Compare `cur` against `base` run-by-run (matched by label). Appends the
/// comparison to `out` and returns the number of failures: regressions
/// (abort rate or wasted-cycle fraction grew past a threshold) plus
/// label-set mismatches — a run present on one side only is a failure, not
/// a skip, so an artifact that silently drops runs cannot pass the gate.
int render_diff(const JsonValue& base, const JsonValue& cur,
                const DiffThresholds& thr, std::string& out);

/// Render terminal per-set heatmaps from an artifact's `set_stats` block:
/// per-level occupancy, eviction-pressure and capacity-abort density rows
/// (one glyph per set), plus the named objects spanning the hottest sets.
/// `level_filter` selects levels: "all", "l1" (every L1 instance), "llc",
/// or an exact instance name like "l1.c0". Returns false — with an
/// explanatory message appended — when the artifact has no set_stats block
/// (run without --set-stats) or the filter matches no level.
bool render_set_heatmaps(const JsonValue& doc, const std::string& level_filter,
                         std::string& out);

/// Self-contained HTML dashboard (report_html.cc): inline CSS + SVG, zero
/// external dependencies, deterministic bytes. Telemetry artifacts get
/// per-run set heatmaps (when present), interval time series and per-site
/// policy tables; sweep artifacts additionally get scaling curves.
std::string render_html(const JsonValue& doc);

/// Render the grid view of a sweep artifact: the axes, a per-cell summary
/// table, and — when the grid has a "threads" axis — makespan/speedup
/// scaling curves per combination of the remaining axes, then a "!!" line
/// per finding in any cell.
std::string render_sweep_report(const JsonValue& doc,
                                const std::vector<Finding>& findings);

/// Append a two-axis pivot table of `metric` over the grid to `out`: rows
/// are `axis_a` values, columns `axis_b` values; cells averaging over any
/// remaining axes. Metrics: abort-rate, wasted, makespan, commits, or a
/// cycle bucket (work, tx_committed, tx_wasted, lock_wait, fallback,
/// mem_stall) as a percentage of total cycles. False (with a message
/// appended) on an unknown axis or metric.
bool render_sweep_pivot(const JsonValue& doc, const std::string& axis_a,
                        const std::string& axis_b, const std::string& metric,
                        std::string& out);

/// Compare two sweep artifacts cell-by-cell. Axis-set or cell-label-set
/// mismatch (missing/extra cell, differing axis names or value lists) is a
/// failure; matching cells diff their embedded runs with the same
/// thresholds and label-set rules as render_diff. Returns the failure
/// count.
int render_sweep_diff(const JsonValue& base, const JsonValue& cur,
                      const DiffThresholds& thr, std::string& out);

}  // namespace tsxhpc::sim
