// Ablation: the retry/backoff/fallback policy behind the elided primitives.
// Section 3 fixes one software fallback handler ("the number of times the
// transactional execution has been tried but failed; for our hardware and
// workloads, 5 gave the best overall performance"). With the TxPolicy seam
// that handler is swappable, so this bench sweeps the shipped policies —
// paper, no-hint, expo-backoff, adaptive-site — over a contended CLOMP-TM
// configuration and a STAMP subset and reports the geomean speedup over the
// paper policy. The four policies must produce four distinct deterministic
// orderings (PolicySeam.PoliciesProduceDistinctSchedules); tier-1
// byte-compares this bench's artifact with
// bench/baselines/BENCH_retry_policy.json (`ctest -L baseline_test`).
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "clomp/clomp.h"
#include "stamp/stamp.h"

using namespace tsxhpc;

int main(int argc, char** argv) {
  bench::BenchIo io(argc, argv, "ablation_retry",
                    "elision policy sweep (Section 3 fallback handler "
                    "variants over the TxPolicy seam)");
  int threads = 4;
  std::string workload_filter;
  io.args().add_int("threads", "STAMP thread count for the sweep", &threads);
  io.args().add_choice("workload", "run only this workload",
                       &workload_filter,
                       {"clomp", "genome", "intruder", "vacation"});
  if (!io.parse()) return io.exit_code();
  const bool quick = io.quick();

  bench::banner(
      "Ablation: elision policy (Section 3 handler vs TxPolicy variants)");

  // An explicit --policy= restricts the sweep to that policy; the sweep
  // orchestrator pins one (workload, policy) pair per grid cell this way.
  std::vector<sim::TxPolicyKind> policies;
  for (sim::TxPolicyKind p :
       {sim::TxPolicyKind::kPaper, sim::TxPolicyKind::kNoHint,
        sim::TxPolicyKind::kExpoBackoff, sim::TxPolicyKind::kAdaptiveSite}) {
    if (io.policy_name().empty() || p == io.tx_policy()) policies.push_back(p);
  }
  std::vector<std::string> workloads;
  for (const char* name : {"clomp", "genome", "intruder", "vacation"}) {
    if (workload_filter.empty() || workload_filter == name) {
      workloads.push_back(name);
    }
  }
  std::vector<std::string> headers{"policy"};
  for (const std::string& w : workloads) {
    headers.push_back(w == "clomp" ? "clomp(contended)" : w);
  }
  headers.push_back("geomean vs " + std::string(sim::to_string(policies[0])));
  bench::Table table(headers);

  // Baselines at the first policy in the sweep (row 0).
  std::vector<double> base;
  std::vector<std::vector<double>> rows;
  for (sim::TxPolicyKind p : policies) {
    const std::string pname = sim::to_string(p);
    std::vector<double> spans;
    for (const std::string& name : workloads) {
      if (name == "clomp") {
        clomp::Config cfg;
        cfg.zones_per_thread = quick ? 24 : 48;
        cfg.scatters_per_zone = 4;
        cfg.repetitions = quick ? 4 : 10;
        cfg.cross_partition_fraction = 0.35;  // real conflicts
        io.apply(cfg.machine);
        cfg.machine.tx_policy = p;  // the sweep overrides any --policy= flag
        cfg.run_label = "clomp/" + pname;
        spans.push_back(static_cast<double>(
            clomp::run(cfg, clomp::Scheme::kLargeTM).makespan));
        continue;
      }
      for (const auto& w : stamp::all_workloads()) {
        if (w.name != name) continue;
        stamp::Config cfg;
        cfg.backend = tmlib::Backend::kTsx;
        cfg.threads = threads;
        cfg.scale = quick ? 0.25 : 0.5;
        io.apply(cfg.machine);
        cfg.machine.tx_policy = p;
        cfg.run_label = name + "/" + pname;
        spans.push_back(static_cast<double>(w.fn(cfg).makespan));
      }
    }
    if (base.empty()) base = spans;
    rows.push_back(spans);
  }

  int best_idx = 0;
  double best_geo = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::vector<std::string> row{sim::to_string(policies[i])};
    double product = 1.0;
    for (std::size_t j = 0; j < rows[i].size(); ++j) {
      const double sp = base[j] / rows[i][j];
      row.push_back(bench::fmt(sp));
      product *= sp;
    }
    const double geo = std::pow(product, 1.0 / rows[i].size());
    row.push_back(bench::fmt(geo, 3));
    table.add_row(row);
    if (geo > best_geo) {
      best_geo = geo;
      best_idx = static_cast<int>(i);
    }
  }
  table.print();
  std::printf("\nBest policy here: %s (the paper ships '%s').\n",
              sim::to_string(policies[best_idx]),
              sim::to_string(sim::TxPolicyKind::kPaper));
  return io.finish();
}
