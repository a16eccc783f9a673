// Reproduces Figure 2: STAMP execution time for sgl / tl2 / tsx at 1, 2, 4,
// and 8 threads, normalized to single-thread sgl (reported as speedup =
// sgl(1)/T so larger is better). Paper claims to check:
//   * sgl never scales;
//   * tl2 pays a large single-thread instrumentation overhead but scales;
//   * tsx single-thread cost ≈ sgl, and it scales, beating tl2 wherever its
//     abort rate stays moderate (labyrinth is the counter-example).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "stamp/stamp.h"

using namespace tsxhpc;
using tmlib::Backend;

int main(int argc, char** argv) {
  bench::BenchIo io(argc, argv, "fig2_stamp",
                    "STAMP speedup over 1-thread sgl (Figure 2)");
  int threads = 0;
  std::string workload_filter;
  std::string scheme_filter;
  bool ref = true;
  io.add_scaling_threads(&threads);
  std::vector<std::string> workload_names;
  for (const auto& w : stamp::all_workloads()) workload_names.push_back(w.name);
  io.args().add_choice("workload", "run only this STAMP workload",
                       &workload_filter, workload_names);
  std::vector<std::string> scheme_names;
  for (Backend b : tmlib::all_backends()) {
    scheme_names.push_back(tmlib::to_string(b));
  }
  io.args().add_choice("scheme", "run only this TM scheme", &scheme_filter,
                       scheme_names);
  io.args().add_bool("ref",
                     "run the 1-thread sgl reference and report speedups; "
                     "--ref=0 skips it and reports raw makespans (sweep "
                     "cells use this so each cell records only its own runs)",
                     &ref);
  if (!io.parse()) return io.exit_code();
  const double scale = io.quick() ? 0.25 : 1.0;

  bench::banner(ref
                    ? "Figure 2: STAMP, speedup over 1-thread sgl (higher is "
                      "better)"
                    : "Figure 2: STAMP, makespan in cycles (lower is better)");

  const int sweep[] = {1, 2, 4, 8};
  // Default columns are the paper's scheme set; --scheme=X narrows the run
  // to exactly that scheme (which is how the extended schemes — tictoc /
  // tictoc-hybrid / mvcc — are exercised without changing the Figure 2
  // default grid).
  std::vector<Backend> schemes{Backend::kSgl, Backend::kTl2, Backend::kTsx};
  if (!scheme_filter.empty()) {
    Backend only = Backend::kSgl;
    tmlib::backend_from_name(scheme_filter, &only);
    schemes = {only};
  }
  for (const auto& w : stamp::all_workloads()) {
    if (!workload_filter.empty() && workload_filter != w.name) continue;
    stamp::Config base;
    base.scale = scale;
    io.apply(base.machine);

    double ref_span = 0.0;
    if (ref) {
      stamp::Config sgl1 = base;
      sgl1.backend = Backend::kSgl;
      sgl1.threads = 1;
      sgl1.run_label = std::string(w.name) + "/sgl/ref";
      ref_span = static_cast<double>(w.fn(sgl1).makespan);
    }

    std::vector<std::string> head{w.name};
    for (Backend b : schemes) head.push_back(tmlib::to_string(b));
    bench::Table table(head);
    for (int t : sweep) {
      if (threads != 0 && threads != t) continue;
      std::vector<std::string> row{std::to_string(t) + " thr"};
      for (Backend b : schemes) {
        stamp::Config cfg = base;
        cfg.backend = b;
        cfg.threads = t;
        cfg.run_label = std::string(w.name) + "/" + tmlib::to_string(b) +
                        "/t" + std::to_string(t);
        const stamp::Result r = w.fn(cfg);
        if (r.checksum == 0) {
          row.push_back("INVALID");
        } else if (ref) {
          row.push_back(
              bench::fmt(ref_span / static_cast<double>(r.makespan)));
        } else {
          row.push_back(std::to_string(r.makespan));
        }
      }
      table.add_row(row);
    }
    table.print();
    std::printf("\n");
  }

  std::printf(
      "Expected shapes: sgl flat at ~1x; tl2 starts well below 1x and "
      "climbs;\ntsx starts near 1x and climbs (except labyrinth, where the "
      "unannotated\ngrid copy forces tsx back to sgl behaviour).\n");
  return io.finish();
}
