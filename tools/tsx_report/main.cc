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
//                                         per-set heatmaps from the
//                                         set_stats block of a --set-stats
//                                         run (level: all, l1, llc, l1.c0,
//                                         ...)
//   tsx_report --html=<out.html> <artifact.json>
//                                         write a self-contained HTML
//                                         dashboard (inline CSS/SVG)
//
// Exit codes: 0 ok, 1 an invariant finding (report mode) or a regression
// or mismatch (diff mode), 2 a usage or I/O error or an artifact that does
// not load: unparsable, of another schema version (a flat artifact or any
// sweep cell), or with a missing or mistyped field. Then stderr reads
// "tsx_report: <file>: <path>: <problem>" and stdout stays empty, in every
// mode.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/args.h"
#include "sim/fsio.h"
#include "sim/invariants.h"
#include "sim/json_parse.h"
#include "sim/report.h"

namespace {

namespace sim = tsxhpc::sim;

bool load_doc(const std::string& path, sim::JsonValue& doc,
              std::vector<sim::Finding>* findings = nullptr) {
  std::string text, err;
  if (!sim::read_file(path, text)) {
    std::fprintf(stderr, "tsx_report: cannot read %s\n", path.c_str());
    return false;
  }
  if (!sim::load_artifact(text, doc, &err, findings)) {
    std::fprintf(stderr, "tsx_report: %s: %s\n", path.c_str(), err.c_str());
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
  sim::DiffThresholds thr;
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
                      "print per-set heatmaps from the set_stats block of a "
                      "v8 artifact written with --set-stats; optionally "
                      "select a level (all, l1, llc, or an instance like "
                      "l1.c0)", &sets, "all");
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

  if (diff && path1.empty()) {
    return args.fail("--diff needs two artifacts: <base.json> <cur.json>");
  }
  if (!diff && !path1.empty()) {
    return args.fail("exactly one artifact expected (or pass --diff)");
  }
  sim::JsonValue doc, cur;
  std::vector<sim::Finding> findings;
  if (!load_doc(path0, doc, &findings) || (diff && !load_doc(path1, cur))) {
    return 2;
  }
  // Every renderer builds its whole output before anything is printed, so
  // a field the loader did not read still exits 2 with empty stdout.
  try {
    const bool sweep = sim::is_sweep_doc(doc);
    std::string out;
    int rc = 0;
    if (diff) {
      if (sweep != sim::is_sweep_doc(cur)) {
        std::fprintf(stderr,
                     "tsx_report: cannot diff a sweep grid against a flat "
                     "telemetry artifact (%s vs %s)\n",
                     path0.c_str(), path1.c_str());
        return 2;
      }
      const int failures = sweep ? sim::render_sweep_diff(doc, cur, thr, out)
                                 : sim::render_diff(doc, cur, thr, out);
      rc = failures > 0 ? 1 : 0;
    } else if (!sets.empty()) {
      if (sweep) {
        return args.fail("--sets needs a telemetry artifact (sweep grids "
                         "embed per-cell telemetry; report those "
                         "individually)");
      }
      rc = sim::render_set_heatmaps(doc, sets, out) ? 0 : 2;
    } else if (!html.empty()) {
      // The page is the whole output.
    } else if (!pivot.empty()) {
      if (!sweep) {
        return args.fail("--pivot needs a tsxhpc-sweep-v1 grid artifact");
      }
      const std::size_t comma = pivot.find(',');
      if (comma == std::string::npos) {
        return args.fail("--pivot wants two axis names: --pivot=axisA,axisB");
      }
      rc = sim::render_sweep_pivot(doc, pivot.substr(0, comma),
                                   pivot.substr(comma + 1), metric, out)
               ? 0
               : 2;
    } else {
      sim::ReportOptions opt;
      opt.top_lines = top;
      out = sweep ? sim::render_sweep_report(doc, findings)
                  : sim::render_report(doc, findings, opt);
      rc = findings.empty() ? 0 : 1;
    }
    if (!diff && !html.empty()) {
      const std::string page = sim::render_html(doc);
      if (!sim::atomic_write_file(html, page)) {
        std::fprintf(stderr, "tsx_report: cannot write %s\n", html.c_str());
        return 2;
      }
      std::printf("wrote %s (%zu bytes)\n", html.c_str(), page.size());
    }
    std::fputs(out.c_str(), stdout);
    return rc;
  } catch (const sim::JsonError& e) {
    std::fprintf(stderr, "tsx_report: %s: %s\n",
                 (diff ? path0 + ", " + path1 : path0).c_str(), e.what());
    return 2;
  }
}
