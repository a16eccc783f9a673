// Reproduces Figure 4: the six real-world workloads of Table 2 at 1-8
// threads, comparing the original synchronization (baseline), the
// straightforward TSX port (tsx.init) and the coarsened port (tsx.coarsen),
// normalized to 1-thread baseline. Paper claims to check:
//   * tsx.init already wins on lock-based workloads (nufft, canneal,
//     graphcluster, physics — via lockset elision);
//   * tsx.init LOSES on the atomics workloads (ua, histogram);
//   * coarsening recovers those and lifts the rest: average 1.41x over
//     baseline at 8 threads.
#include <cmath>
#include <cstdio>

#include "apps/apps.h"
#include "bench/bench_util.h"

using namespace tsxhpc;

int main(int argc, char** argv) {
  bench::BenchIo io(argc, argv, "fig4_realworld",
                    "real-world workload scaling vs baseline (Figure 4)");
  int threads = 0;
  std::string workload_filter;
  io.add_scaling_threads(&threads);
  io.args().add_string("workload", "run only this workload", &workload_filter);
  if (!io.parse()) return io.exit_code();
  const double scale = io.quick() ? 0.25 : 1.0;

  bench::banner("Figure 4: real-world workloads, speedup over 1-thread baseline");

  double product = 1.0;
  int n = 0;
  for (const auto& w : apps::all_workloads()) {
    if (!workload_filter.empty() && workload_filter != w.name) continue;
    apps::Config ref_cfg;
    ref_cfg.variant = apps::Variant::kBaseline;
    ref_cfg.threads = 1;
    ref_cfg.scale = scale;
    io.apply(ref_cfg.machine);
    ref_cfg.run_label = std::string(w.name) + "/baseline/ref";
    const double ref = static_cast<double>(w.fn(ref_cfg).makespan);

    bench::Table table({w.name, "baseline", "tsx.init", "tsx.coarsen"});
    double base8 = 0, coarsen8 = 0;
    for (int t : {1, 2, 4, 8}) {
      if (threads != 0 && threads != t) continue;
      std::vector<std::string> row{std::to_string(t) + " thr"};
      for (apps::Variant v :
           {apps::Variant::kBaseline, apps::Variant::kTsxInit,
            apps::Variant::kTsxCoarsen}) {
        apps::Config cfg = ref_cfg;
        cfg.variant = v;
        cfg.threads = t;
        cfg.run_label = std::string(w.name) + "/" + apps::to_string(v) +
                        "/t" + std::to_string(t);
        const apps::Result r = w.fn(cfg);
        const double sp = ref / static_cast<double>(r.makespan);
        row.push_back(r.checksum == 0 ? "INVALID" : bench::fmt(sp));
        if (t == 8 && v == apps::Variant::kBaseline) base8 = sp;
        if (t == 8 && v == apps::Variant::kTsxCoarsen) coarsen8 = sp;
      }
      table.add_row(row);
    }
    table.print();
    if (base8 > 0) {
      std::printf("  8-thread tsx.coarsen/baseline = %.2fx\n\n",
                  coarsen8 / base8);
      product *= coarsen8 / base8;
      n++;
    }
  }
  if (n > 0) {
    std::printf(
        "Geomean tsx.coarsen speedup over baseline at 8 threads: %.2fx "
        "(paper: 1.41x average)\n",
        std::pow(product, 1.0 / n));
  }
  return io.finish();
}
