// Reproduces Table 1: transactional abort rates (%) for tl2 and tsx on the
// STAMP suite at 1, 2, 4, and 8 threads. Paper claims to check:
//   * tl2 aborts ~0% at 1 thread everywhere (no concurrent writers);
//   * tsx has nonzero 1-thread abort rates on medium/large-footprint
//     workloads (bayes, labyrinth, vacation, yada) — L1 capacity effects;
//   * 8 threads (HyperThreading: two threads share an L1) show markedly
//     higher tsx abort rates than 4 threads;
//   * ssca2 stays ~0% for both.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "stamp/stamp.h"

using namespace tsxhpc;
using tmlib::Backend;

int main(int argc, char** argv) {
  bench::BenchIo io(argc, argv, "table1_aborts",
                    "STAMP transactional abort rates (Table 1)");
  int threads = 0;
  std::string workload_filter;
  std::string scheme_filter;
  io.add_scaling_threads(&threads);
  std::vector<std::string> workload_names;
  for (const auto& w : stamp::all_workloads()) workload_names.push_back(w.name);
  io.args().add_choice("workload", "run only this STAMP workload",
                       &workload_filter, workload_names);
  io.args().add_choice(
      "scheme", "run only this TM scheme", &scheme_filter,
      {"tl2", "tsx", "tictoc", "tictoc-hybrid", "mvcc"});
  if (!io.parse()) return io.exit_code();
  const double scale = io.quick() ? 0.25 : 1.0;

  bench::banner("Table 1: STAMP transactional abort rates (%)");

  // Default columns are the paper's pair; --scheme=X narrows the table to
  // that scheme alone (how the extended STM schemes are measured).
  std::vector<Backend> schemes{Backend::kTl2, Backend::kTsx};
  if (!scheme_filter.empty()) {
    Backend only = Backend::kTl2;
    tmlib::backend_from_name(scheme_filter, &only);
    schemes = {only};
  }
  std::vector<std::string> head{"workload"};
  for (int t : {1, 2, 4, 8}) {
    for (Backend b : schemes) {
      head.push_back(std::string(tmlib::to_string(b)) + "@" +
                     std::to_string(t));
    }
  }
  bench::Table table(head);
  for (const auto& w : stamp::all_workloads()) {
    if (!workload_filter.empty() && workload_filter != w.name) continue;
    std::vector<std::string> row{w.name};
    for (int t : {1, 2, 4, 8}) {
      for (Backend b : schemes) {
        if (threads != 0 && threads != t) {
          row.push_back("-");
          continue;
        }
        stamp::Config cfg;
        cfg.backend = b;
        cfg.threads = t;
        cfg.scale = scale;
        io.apply(cfg.machine);
        cfg.run_label = std::string(w.name) + "/" + tmlib::to_string(b) +
                        "/t" + std::to_string(t);
        const stamp::Result r = w.fn(cfg);
        row.push_back(bench::fmt(r.abort_rate_pct(b), 0));
      }
    }
    table.add_row(row);
  }
  table.print();

  std::printf(
      "\nPaper's Table 1 for reference (tsx columns): bayes 64/91/89/94, "
      "genome 6/11/19/88,\nintruder 6/11/31/74, kmeans 0/26/71/96, "
      "labyrinth 87/95/100/97, ssca2 0/1/1/1,\nvacation 38/51/52/99, yada "
      "46/68/84/92.\n");
  return io.finish();
}
