// Ablation: placement of named shared objects (the sim::AllocStrategy seam).
// The paper's capacity results (Section 2, Table 1) are functions of *where*
// objects land in the cache index space, not just how big they are: write
// sets die on L1 set overflow and read sets on LLC evictions, so two layouts
// of the same footprint can sit on opposite sides of the capacity cliff.
// This bench sweeps the shipped strategies — bump (historic layout), slab,
// color, adversarial — over two placement-sensitive kernels and a STAMP
// subset and reports capacity-class aborts (kCapacityWrite + kCapacityRead)
// per cell:
//   * multiarray: 12 named arrays, each exactly one set wrap long. A bump
//     (or slab) layout puts every array's line 0 in the same L1/LLC set, so
//     a transaction writing one line of each overflows the 8-way L1 set and
//     dies; coloring rotates the bases apart and the same transaction fits.
//   * objects: 24 named half-wrap objects, transactionally *read*. Bump
//     stacks the bases in two LLC sets (12 > 10 ways), so reads churn the
//     set and feed the read-eviction lottery; coloring spreads them and the
//     lottery never draws.
// Per-set doom heatmaps come from the artifact: run with --set-stats and
// feed the JSON to `tsx_report --sets=l1 | --sets=llc`. Tier-1 byte-compares
// the merged placement grid with bench/baselines/BENCH_placement.json
// (`ctest -L baseline_test`).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sim/machine.h"
#include "stamp/stamp.h"

using namespace tsxhpc;
using sim::AbortCause;
using sim::Context;
using sim::Machine;

namespace {

std::uint64_t capacity_aborts(const sim::RunStats& rs) {
  const sim::ThreadStats t = rs.total();
  return t.tx_aborted[static_cast<std::size_t>(AbortCause::kCapacityWrite)] +
         t.tx_aborted[static_cast<std::size_t>(AbortCause::kCapacityRead)];
}

// 12 arrays x one full set wrap: under bump every base shares one cache
// index, and 12 written lines exceed the 8-way L1 set. 12 also exceeds the
// 10-way LLC set, so even the read variant of this shape would not hide.
std::uint64_t run_multiarray(bench::BenchIo& io, sim::AllocStrategyKind s,
                             bool quick) {
  sim::MachineConfig cfg;
  io.apply(cfg);
  cfg.alloc_strategy = s;
  Machine m(cfg);
  constexpr int kArrays = 12;  // > max(l1_ways, llc_ways)
  const std::size_t wrap =
      static_cast<std::size_t>(cfg.llc_sets()) * cfg.line_bytes;
  std::vector<sim::Addr> base;
  for (int i = 0; i < kArrays; ++i) {
    base.push_back(
        m.alloc({.name = "multiarray/a" + std::to_string(i), .bytes = wrap}));
  }
  const int txns = quick ? 30 : 80;
  sim::RunSpec spec;
  spec.threads = 1;
  spec.label = std::string("multiarray/") + sim::to_string(s);
  spec.body = [&](Context& c) {
    for (int t = 0; t < txns; ++t) {
      try {
        c.xbegin();
        for (int i = 0; i < kArrays; ++i) c.store(base[i], t);
        c.xend();
      } catch (const sim::TxAbort&) {
      }
    }
  };
  return capacity_aborts(m.run(spec));
}

// 24 read-only objects of half a set wrap: bump stacks 12 bases per LLC set
// (10 ways), so every transaction evicts transactionally read lines and
// rolls the read-eviction lottery; adversarial stacks all 24 in set 0.
std::uint64_t run_objects(bench::BenchIo& io, sim::AllocStrategyKind s,
                          bool quick) {
  sim::MachineConfig cfg;
  io.apply(cfg);
  cfg.alloc_strategy = s;
  Machine m(cfg);
  constexpr int kObjects = 24;
  const std::size_t half_wrap =
      static_cast<std::size_t>(cfg.llc_sets()) * cfg.line_bytes / 2;
  std::vector<sim::Addr> base;
  for (int i = 0; i < kObjects; ++i) {
    base.push_back(m.alloc(
        {.name = "objects/o" + std::to_string(i), .bytes = half_wrap}));
  }
  const int txns = quick ? 40 : 100;
  sim::RunSpec spec;
  spec.threads = 1;
  spec.label = std::string("objects/") + sim::to_string(s);
  spec.body = [&](Context& c) {
    for (int t = 0; t < txns; ++t) {
      try {
        c.xbegin();
        for (int i = 0; i < kObjects; ++i) (void)c.load(base[i]);
        c.xend();
      } catch (const sim::TxAbort&) {
      }
    }
  };
  return capacity_aborts(m.run(spec));
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchIo io(argc, argv, "ablation_placement",
                    "allocation-placement sweep (AllocStrategy seam over "
                    "capacity kernels and a STAMP subset)");
  int threads = 4;
  std::string workload_filter;
  io.args().add_int("threads", "STAMP thread count for the sweep", &threads);
  io.args().add_choice("workload", "run only this workload",
                       &workload_filter,
                       {"multiarray", "objects", "vacation", "genome",
                        "kmeans"});
  if (!io.parse()) return io.exit_code();
  const bool quick = io.quick();

  bench::banner(
      "Ablation: named-object placement (AllocStrategy seam, capacity-class "
      "aborts)");

  // An explicit --alloc= restricts the sweep to that strategy; the sweep
  // orchestrator pins one (workload, alloc) pair per grid cell this way.
  std::vector<sim::AllocStrategyKind> strategies;
  for (sim::AllocStrategyKind s :
       {sim::AllocStrategyKind::kBump, sim::AllocStrategyKind::kSlab,
        sim::AllocStrategyKind::kColor,
        sim::AllocStrategyKind::kAdversarial}) {
    if (io.alloc_name().empty() || s == io.alloc_strategy()) {
      strategies.push_back(s);
    }
  }
  std::vector<std::string> workloads;
  for (const char* name :
       {"multiarray", "objects", "vacation", "genome", "kmeans"}) {
    if (workload_filter.empty() || workload_filter == name) {
      workloads.push_back(name);
    }
  }

  std::vector<std::string> headers{"alloc"};
  for (const std::string& w : workloads) headers.push_back(w);
  headers.push_back("total cap aborts");
  bench::Table table(headers);

  int best_idx = 0;
  std::uint64_t best_total = ~0ull;
  for (std::size_t si = 0; si < strategies.size(); ++si) {
    const sim::AllocStrategyKind s = strategies[si];
    const std::string sname = sim::to_string(s);
    std::vector<std::string> row{sname};
    std::uint64_t total = 0;
    for (const std::string& name : workloads) {
      std::uint64_t cap = 0;
      if (name == "multiarray") {
        cap = run_multiarray(io, s, quick);
      } else if (name == "objects") {
        cap = run_objects(io, s, quick);
      } else {
        for (const auto& w : stamp::all_workloads()) {
          if (w.name != name) continue;
          stamp::Config cfg;
          cfg.backend = tmlib::Backend::kTsx;
          cfg.threads = threads;
          cfg.scale = quick ? 0.25 : 0.5;
          io.apply(cfg.machine);
          cfg.machine.alloc_strategy = s;  // the sweep overrides --alloc=
          cfg.run_label = name + "/" + sname;
          cap = capacity_aborts(w.fn(cfg).stats);
        }
      }
      row.push_back(std::to_string(cap));
      total += cap;
    }
    row.push_back(std::to_string(total));
    table.add_row(row);
    if (total < best_total) {
      best_total = total;
      best_idx = static_cast<int>(si);
    }
  }
  table.print();
  std::printf(
      "\nFewest capacity aborts here: %s (the historic layout is '%s').\n"
      "Per-set evidence: rerun with --set-stats --json=<path> and render\n"
      "the doom heatmaps with `tsx_report --sets=l1 <path>` / --sets=llc.\n",
      sim::to_string(strategies[best_idx]),
      sim::to_string(sim::AllocStrategyKind::kBump));
  return io.finish();
}
