// Reproduces Figure 3: RMS-TM speedup over 1-thread fgl for fgl / sgl / tsx
// at 1, 2, 4, 8 threads. Paper claims to check:
//   * fine-grained locking scales reasonably on all workloads;
//   * tsx provides comparable performance — even with malloc and file I/O
//     happening inside transactional regions (early abort + lock);
//   * the single global lock collapses only on fluidanimate (tiny critical
//     sections at enormous rate) and utilitymine (>30% of time in critical
//     sections), where tsx keeps scaling.
#include <cstdio>

#include "bench/bench_util.h"
#include "rmstm/rmstm.h"

using namespace tsxhpc;

int main(int argc, char** argv) {
  bench::BenchIo io(argc, argv, "fig3_rmstm",
                    "RMS-TM speedup over 1-thread fgl (Figure 3)");
  int threads = 0;
  std::string workload_filter;
  std::string scheme_filter;
  io.add_scaling_threads(&threads);
  io.args().add_string("workload", "run only this RMS-TM workload",
                       &workload_filter);
  io.args().add_string("scheme", "run only this scheme (fgl, sgl, tsx)",
                       &scheme_filter);
  if (!io.parse()) return io.exit_code();
  const double scale = io.quick() ? 0.25 : 1.0;

  bench::banner("Figure 3: RMS-TM, speedup over 1-thread fgl");

  for (const auto& w : rmstm::all_workloads()) {
    if (!workload_filter.empty() && workload_filter != w.name) continue;
    rmstm::Config ref_cfg;
    ref_cfg.scheme = rmstm::Scheme::kFgl;
    ref_cfg.threads = 1;
    ref_cfg.scale = scale;
    io.apply(ref_cfg.machine);
    ref_cfg.run_label = std::string(w.name) + "/fgl/ref";
    const double ref = static_cast<double>(w.fn(ref_cfg).makespan);

    bench::Table table({w.name, "fgl", "sgl", "tsx"});
    for (int t : {1, 2, 4, 8}) {
      if (threads != 0 && threads != t) continue;
      std::vector<std::string> row{std::to_string(t) + " thr"};
      for (rmstm::Scheme s :
           {rmstm::Scheme::kFgl, rmstm::Scheme::kSgl, rmstm::Scheme::kTsx}) {
        if (!scheme_filter.empty() && scheme_filter != rmstm::to_string(s)) {
          row.push_back("-");
          continue;
        }
        rmstm::Config cfg = ref_cfg;
        cfg.scheme = s;
        cfg.threads = t;
        cfg.run_label = std::string(w.name) + "/" + rmstm::to_string(s) +
                        "/t" + std::to_string(t);
        const rmstm::Result r = w.fn(cfg);
        row.push_back(r.checksum == 0
                          ? "INVALID"
                          : bench::fmt(ref / static_cast<double>(r.makespan)));
      }
      table.add_row(row);
    }
    table.print();
    std::printf("\n");
  }
  std::printf(
      "Expected: tsx tracks fgl on every row; sgl collapses only on\n"
      "fluidanimate and utilitymine.\n");
  return io.finish();
}
