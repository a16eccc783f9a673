// tsx_report: offline analyzer for tsxhpc telemetry and sweep-grid JSON
// artifacts.
//
//   tsx_report <artifact.json>            print the abort-diagnosis report
//                                         (or the grid view for a
//                                         tsxhpc-sweep-v1 artifact) with a
//                                         "!!" line per broken invariant
//                                         (sim/invariants.h); exit 1 on any
//   tsx_report --pivot=axisA,axisB [--metric=M] <sweep.json>
//                                         two-axis pivot table over a grid
//   tsx_report --diff <base.json> <cur.json> [--max-abort-rate-pp=X]
//                                         [--max-wasted-pp=X]
//                                         compare two artifacts; exit 1 on a
//                                         regression past a threshold or any
//                                         label/axis/cell-set mismatch.
//                                         Grid artifacts diff cell-by-cell.
//   tsx_report --top=N <artifact.json>    show N conflict lines (default 10)
//   tsx_report --sets[=level] <artifact.json>
//                                         per-set heatmaps from a v5
//                                         artifact's set_stats block
//                                         (level: all, l1, llc, l1.c0, ...)
//   tsx_report --html=<out.html> <artifact.json>
//                                         write a self-contained HTML
//                                         dashboard (inline CSS/SVG)
//
// Exit codes: 0 ok, 1 an invariant finding (report mode) or a regression
// or mismatch (diff mode), 2 usage or I/O error.
#include <cstdio>
#include <string>

#include "bench/args.h"
#include "sim/fsio.h"
#include "sim/invariants.h"
#include "sim/json_parse.h"
#include "sim/report.h"

namespace {

bool load_doc(const std::string& path, tsxhpc::sim::JsonValue& doc) {
  std::string text;
  if (!tsxhpc::sim::read_file(path, text)) {
    std::fprintf(stderr, "tsx_report: cannot read %s\n", path.c_str());
    return false;
  }
  std::string err;
  doc = tsxhpc::sim::JsonParser::parse(text, &err);
  if (doc.is_null()) {
    std::fprintf(stderr, "tsx_report: %s: parse error: %s\n", path.c_str(),
                 err.c_str());
    return false;
  }
  if (!tsxhpc::sim::is_telemetry_doc(doc) && !tsxhpc::sim::is_sweep_doc(doc)) {
    std::fprintf(stderr,
                 "tsx_report: %s is neither a tsxhpc-telemetry nor a "
                 "tsxhpc-sweep artifact\n",
                 path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  tsxhpc::bench::Args args(
      "tsx_report", "analyze/diff tsxhpc telemetry and sweep JSON artifacts");
  bool diff = false, cli_markdown = false;
  std::size_t top = 10;
  tsxhpc::sim::DiffThresholds thr;
  std::string path0, path1, pivot, metric = "abort-rate", sets, html;
  args.add_bool("diff", "compare two artifacts; exit 1 on regression or "
                        "label/axis-set mismatch", &diff);
  args.add_size("top", "conflict lines to show in the report", &top);
  args.add_string("pivot",
                  "sweep grids: render a two-axis pivot table, e.g. "
                  "--pivot=scheme,threads", &pivot);
  args.add_string("metric",
                  "pivot metric: abort-rate, wasted, makespan, commits, or "
                  "a cycle bucket (work, tx_committed, tx_wasted, lock_wait, "
                  "fallback, mem_stall)", &metric);
  args.add_opt_string("sets",
                      "print per-set heatmaps from a v5 artifact's set_stats "
                      "block; optionally select a level (all, l1, llc, or an "
                      "instance like l1.c0)", &sets, "all");
  args.add_string("html",
                  "write a self-contained HTML dashboard (inline CSS/SVG, no "
                  "external assets) to this path", &html);
  args.add_double("max-abort-rate-pp",
                  "diff: allowed abort-rate increase (percentage points)",
                  &thr.abort_rate_pp);
  args.add_double("max-wasted-pp",
                  "diff: allowed wasted-cycle increase (percentage points)",
                  &thr.wasted_cycle_pp);
  args.add_bool("cli-markdown",
                "print the flag table as markdown and exit (the "
                "EXPERIMENTS.md CLI reference is generated from this)",
                &cli_markdown);
  args.add_positional("artifact", "telemetry/sweep artifact (diff: the "
                                  "baseline)", &path0, false);
  args.add_positional("current", "second artifact (diff mode only)", &path1,
                      false);
  if (!args.parse(argc, argv)) return args.exit_code();
  if (cli_markdown) {
    std::printf("### `tsx_report`\n\n%s", args.markdown().c_str());
    return 0;
  }
  if (path0.empty()) {
    return args.fail("missing required argument <artifact>");
  }

  if (diff) {
    if (path1.empty()) {
      return args.fail("--diff needs two artifacts: <base.json> <cur.json>");
    }
    tsxhpc::sim::JsonValue base, cur;
    if (!load_doc(path0, base) || !load_doc(path1, cur)) return 2;
    const bool base_sweep = tsxhpc::sim::is_sweep_doc(base);
    const bool cur_sweep = tsxhpc::sim::is_sweep_doc(cur);
    if (base_sweep != cur_sweep) {
      std::fprintf(stderr,
                   "tsx_report: cannot diff a sweep grid against a flat "
                   "telemetry artifact (%s vs %s)\n",
                   path0.c_str(), path1.c_str());
      return 2;
    }
    std::string out;
    const int failures =
        base_sweep ? tsxhpc::sim::render_sweep_diff(base, cur, thr, out)
                   : tsxhpc::sim::render_diff(base, cur, thr, out);
    std::fputs(out.c_str(), stdout);
    return failures > 0 ? 1 : 0;
  }

  if (!path1.empty()) {
    return args.fail("exactly one artifact expected (or pass --diff)");
  }
  tsxhpc::sim::JsonValue doc;
  if (!load_doc(path0, doc)) return 2;
  if (!html.empty()) {
    const std::string page = tsxhpc::sim::render_html(doc);
    if (!tsxhpc::sim::atomic_write_file(html, page)) {
      std::fprintf(stderr, "tsx_report: cannot write %s\n", html.c_str());
      return 2;
    }
    std::printf("wrote %s (%zu bytes)\n", html.c_str(), page.size());
    if (sets.empty()) return 0;
  }
  if (!sets.empty()) {
    if (!tsxhpc::sim::is_telemetry_doc(doc)) {
      return args.fail("--sets needs a telemetry artifact (sweep grids embed "
                       "per-cell telemetry; report those individually)");
    }
    std::string out;
    const bool ok = tsxhpc::sim::render_set_heatmaps(doc, sets, out);
    std::fputs(out.c_str(), stdout);
    return ok ? 0 : 2;
  }
  if (!pivot.empty()) {
    if (!tsxhpc::sim::is_sweep_doc(doc)) {
      return args.fail("--pivot needs a tsxhpc-sweep-v1 grid artifact");
    }
    const std::size_t comma = pivot.find(',');
    if (comma == std::string::npos) {
      return args.fail("--pivot wants two axis names: --pivot=axisA,axisB");
    }
    std::string out;
    const bool ok = tsxhpc::sim::render_sweep_pivot(
        doc, pivot.substr(0, comma), pivot.substr(comma + 1), metric, out);
    std::fputs(out.c_str(), stdout);
    return ok ? 0 : 2;
  }
  if (tsxhpc::sim::is_sweep_doc(doc)) {
    std::fputs(tsxhpc::sim::render_sweep_report(doc).c_str(), stdout);
  } else {
    tsxhpc::sim::ReportOptions opt;
    opt.top_lines = top;
    std::fputs(tsxhpc::sim::render_report(doc, opt).c_str(), stdout);
  }
  return tsxhpc::sim::check_invariants(doc).empty() ? 0 : 1;
}
