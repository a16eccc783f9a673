#include "perfbench/probes.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>

#include "perfbench/cells.h"
#include "sim/cache.h"
#include "sim/machine.h"
#include "sim/memory.h"
#include "tmlib/tm.h"

namespace tsxhpc::perfbench {
namespace {

constexpr sim::Addr kLine = 64;
constexpr int kRounds = 8;

/// Host ns per op of one timed call; `body(ops)` performs `ops` calls.
template <typename F>
double ns_per_op(std::uint64_t ops, F&& body) {
  const Clock::time_point t0 = Clock::now();
  body(ops);
  return seconds_since(t0) * 1e9 / static_cast<double>(ops);
}

// tools/simspeed's configuration: lockstep compute-only threads, quantum
// 200, 4000 simulated kilocycles per thread, so the token rotates through
// all threads about once per quantum. ns per handoff uses simspeed's
// formula (makespan / quantum * threads handoffs).
constexpr sim::Cycles kHandoffQuantum = 200;
constexpr sim::Cycles kHandoffCyclesPerThread = 4000 * 1000;

/// One compute-only run; returns host ns per handoff.
double handoff_ns(sim::MachineConfig cfg, int threads) {
  cfg.sched_quantum = kHandoffQuantum;
  sim::Machine m(cfg);
  sim::RunSpec spec;
  spec.threads = threads;
  spec.label = "handoff";
  spec.body = [](sim::Context& c) {
    while (c.now() < kHandoffCyclesPerThread) c.compute(50);
  };
  const Clock::time_point t0 = Clock::now();
  const sim::RunStats rs = m.run(spec);
  const double handoffs = static_cast<double>(rs.makespan) /
                          static_cast<double>(kHandoffQuantum) * threads;
  return seconds_since(t0) * 1e9 / handoffs;
}

/// A standalone MemorySystem (no Machine, no engine) on thread 0.
struct MemProbe {
  explicit MemProbe(const sim::MachineConfig& c)
      : cfg(c), stats(c.num_hw_threads()), mem(cfg, stats) {}
  sim::MachineConfig cfg;
  std::vector<sim::ThreadStats> stats;
  sim::MemorySystem mem;
};

/// Host ns per MemorySystem load (or store) cycling over `lines`
/// consecutive cache lines.
double mem_access_ns(const sim::MachineConfig& cfg, std::uint64_t lines,
                     bool store, std::uint64_t ops) {
  MemProbe p(cfg);
  const sim::Addr base = p.mem.heap().allocate(lines * kLine, kLine);
  std::uint64_t i = 0;
  auto sweep = [&](std::uint64_t n) {
    for (std::uint64_t k = 0; k < n; ++k) {
      const sim::Addr a = base + (i % lines) * kLine;
      if (store) {
        p.mem.store(0, a, k, 8);
      } else {
        (void)p.mem.load(0, a, 8);
      }
      ++i;
    }
  };
  sweep(2 * lines);  // fill the levels the working set fits in
  return ns_per_op(ops, sweep);
}

/// Host ns per transaction: tx_begin, `footprint` lines alternately loaded
/// and stored, then tx_end (commit) or tx_rollback (abort).
double mem_tx_ns(const sim::MachineConfig& cfg, std::uint64_t footprint,
                 bool commit, std::uint64_t ops) {
  MemProbe p(cfg);
  const sim::Addr base = p.mem.heap().allocate(footprint * kLine, kLine);
  auto run = [&](std::uint64_t n) {
    for (std::uint64_t k = 0; k < n; ++k) {
      p.mem.tx_begin(0);
      for (std::uint64_t j = 0; j < footprint; ++j) {
        if ((j & 1) != 0) {
          p.mem.store(0, base + j * kLine, k, 8);
        } else {
          (void)p.mem.load(0, base + j * kLine, 8);
        }
      }
      if (commit) {
        p.mem.tx_end(0);
      } else {
        p.mem.tx_rollback(0, sim::AbortCause::kExplicit);
      }
    }
  };
  run(16);
  return ns_per_op(ops, run);
}

/// Host ns per CacheLevel::touch hitting a working set of 3/4 of the
/// level's capacity.
double cache_touch_ns(std::uint32_t sets, std::uint32_t ways,
                      std::uint64_t ops) {
  sim::CacheLevel level(sets, ways);
  const std::uint64_t lines = static_cast<std::uint64_t>(sets) * ways * 3 / 4;
  std::uint64_t i = 0;
  auto sweep = [&](std::uint64_t n) {
    for (std::uint64_t k = 0; k < n; ++k) {
      (void)level.touch(i % lines, 0, false, false);
      ++i;
    }
  };
  sweep(lines);
  return ns_per_op(ops, sweep);
}

/// Context::load (or an empty xbegin/xend pair when `tx`), timed inside a
/// 1-thread Machine::run, so each call pays Context's charge and
/// Engine::advance.
double context_ns(const sim::MachineConfig& cfg, bool tx) {
  sim::Machine m(cfg);
  const std::uint64_t lines = cfg.l1_sets() * cfg.l1_ways / 2;
  const sim::Addr base = m.alloc(lines * kLine);
  double ns = 0;
  sim::RunSpec spec;
  spec.threads = 1;
  spec.label = "ctx-probe";
  spec.body = [&](sim::Context& c) {
    std::uint64_t i = 0;
    auto loads = [&](std::uint64_t n) {
      for (std::uint64_t k = 0; k < n; ++k) {
        (void)c.load(base + (i++ % lines) * kLine);
      }
    };
    loads(lines);
    ns = tx ? ns_per_op(100000,
                        [&](std::uint64_t n) {
                          for (std::uint64_t k = 0; k < n; ++k) {
                            c.xbegin();
                            c.xend();
                          }
                        })
            : ns_per_op(200000, loads);
  };
  m.run(spec);
  return ns;
}

/// Host ns per TmThread::atomic with 8 annotated reads and 2 annotated
/// writes, 1 simulated thread, under `scheme`.
double cc_tx_ns(const sim::MachineConfig& cfg, tmlib::Backend scheme) {
  constexpr std::uint64_t kLines = 64;
  sim::Machine m(cfg);
  tmlib::TmRuntime rt(m, scheme);
  const sim::Addr base = m.alloc(kLines * kLine);
  double ns = 0;
  sim::RunSpec spec;
  spec.threads = 1;
  spec.label = std::string("cc-probe/") + tmlib::to_string(scheme);
  spec.body = [&](sim::Context& c) {
    tmlib::TmThread th(rt, c);
    std::uint64_t i = 0;
    auto regions = [&](std::uint64_t n) {
      for (std::uint64_t k = 0; k < n; ++k, ++i) {
        th.atomic([&](tmlib::TmAccess& tm) {
          for (std::uint64_t r = 0; r < 8; ++r) {
            (void)tm.read(base + ((i + r) % kLines) * kLine);
          }
          for (std::uint64_t w = 0; w < 2; ++w) {
            tm.write(base + ((i + w) % kLines) * kLine, i);
          }
        });
      }
    };
    regions(kLines);
    ns = ns_per_op(20000, regions);
  };
  m.run(spec);
  return ns;
}

double machine_ctor_ms(const sim::MachineConfig& cfg) {
  const Clock::time_point t0 = Clock::now();
  sim::Machine m(cfg);
  return seconds_since(t0) * 1e3;
}

}  // namespace

double calibration_ns() {
  constexpr std::uint64_t kIters = 20'000'000;
  volatile std::uint64_t sink = 0;
  double best = 1e300;
  for (int r = 0; r < 5; ++r) {
    best = std::min(best, ns_per_op(kIters, [&](std::uint64_t n) {
      std::uint64_t x = 0x9E3779B97F4A7C15ULL;
      for (std::uint64_t k = 0; k < n; ++k) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      sink = sink + x;
    }));
  }
  return best;
}

void run_layer_probes(const sim::MachineConfig& cfg, Tracer& tr,
                      std::vector<Metric>& out) {
  struct Probe {
    std::string name;
    std::string unit;
    std::function<double()> once;
  };
  const std::uint64_t l1_lines = cfg.l1_sets() * cfg.l1_ways;
  const std::uint64_t llc_lines = static_cast<std::uint64_t>(cfg.llc_sets()) *
                                  cfg.llc_ways * cfg.topology.llc_slices;
  // Working sets against the modelled geometry: half the L1 (hits); one
  // line more per L1 set than the L1 has ways (every access misses the L1
  // under LRU and hits the LLC, whose sets have more ways); twice the
  // whole LLC (every access goes to DRAM).
  const std::uint64_t ws_llc = cfg.l1_sets() * (cfg.l1_ways + 1);
  const sim::MachineConfig t8 = default_machine();
  const sim::MachineConfig t64 = numa64_machine(2, sim::MapPolicy::kCompact);
  std::vector<Probe> probes = {
      {"engine.handoff_ns.t8", "ns", [&] { return handoff_ns(t8, 8); }},
      {"engine.handoff_ns.t64", "ns",
       [&] { return handoff_ns(t64, 64); }},
      {"mem.load_ns.l1", "ns",
       [&] { return mem_access_ns(cfg, l1_lines / 2, false, 400000); }},
      {"mem.load_ns.llc", "ns",
       [&] { return mem_access_ns(cfg, ws_llc, false, 200000); }},
      {"mem.load_ns.dram", "ns",
       [&] { return mem_access_ns(cfg, 2 * llc_lines, false, 200000); }},
      {"mem.store_ns.l1", "ns",
       [&] { return mem_access_ns(cfg, l1_lines / 2, true, 400000); }},
  };
  for (std::uint64_t f : {4, 16, 64}) {
    probes.push_back({"mem.tx_commit_ns.f" + std::to_string(f), "ns",
                      [&cfg, f] { return mem_tx_ns(cfg, f, true, 20000); }});
  }
  probes.push_back({"mem.tx_abort_ns.f16", "ns",
                    [&] { return mem_tx_ns(cfg, 16, false, 20000); }});
  probes.push_back({"cache.touch_ns.l1", "ns", [&] {
                      return cache_touch_ns(cfg.l1_sets(), cfg.l1_ways, 1000000);
                    }});
  probes.push_back({"cache.touch_ns.llc", "ns", [&] {
                      return cache_touch_ns(cfg.llc_sets(), cfg.llc_ways,
                                            1000000);
                    }});
  probes.push_back({"ctx.load_ns", "ns", [&] { return context_ns(cfg, false); }});
  probes.push_back(
      {"ctx.xbegin_xend_ns", "ns", [&] { return context_ns(cfg, true); }});
  for (tmlib::Backend b :
       {tmlib::Backend::kSgl, tmlib::Backend::kTl2, tmlib::Backend::kTsx}) {
    probes.push_back({std::string("cc.tx_ns.") + tmlib::to_string(b), "ns",
                      [&cfg, b] { return cc_tx_ns(cfg, b); }});
  }
  probes.push_back({"machine.ctor_ms.default", "ms",
                    [&] { return machine_ctor_ms(t8); }});
  probes.push_back({"machine.ctor_ms.numa64", "ms", [] {
                      return machine_ctor_ms(
                          numa64_machine(8, sim::MapPolicy::kCompact));
                    }});
  probes.push_back({"host.calib_ns", "ns", [] { return calibration_ns(); }});

  // Round-robin rounds spread each probe's repetitions over several
  // seconds of host time; the fastest repetition is the probe's cost.
  std::vector<double> best(probes.size(), 1e300);
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t p = 0; p < probes.size(); ++p) {
      Scope s(tr, probes[p].name);
      best[p] = std::min(best[p], probes[p].once());
    }
  }
  for (std::size_t p = 0; p < probes.size(); ++p) {
    out.push_back({probes[p].name, best[p], probes[p].unit});
  }
}

}  // namespace tsxhpc::perfbench
