// Cache-set-resolved telemetry (schema v5): the per-set counters each
// CacheLevel records under MachineConfig::set_stats are charged at the same
// sites as the ThreadStats totals, so every per-set column must sum exactly
// to its level total; capacity dooms are charged per set at rollback time
// keyed by the abort cause, so they must reconcile with the tx_aborted
// capacity classes; and named-object set attribution is pure geometry the
// tests can predict from the allocation layout. Set-targeted strides (see
// hierarchy_test.cc) make every scenario deterministic.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine.h"
#include "sim/report.h"
#include "sim/json_parse.h"
#include "sim/shared.h"
#include "sim/telemetry.h"
#include "sync/elision.h"

namespace tsxhpc::sim {
namespace {

// Both default levels are 64-set, so lines (64 * line_bytes) apart collide
// in the same set at both levels.
constexpr std::size_t kSetStrideLines = 64;

const LevelSetStats* find_level(const RunRecord& r, const std::string& name) {
  for (const LevelSetStats& l : r.set_stats) {
    if (l.level == name) return &l;
  }
  return nullptr;
}

const NamedRegionRec* find_object(const RunRecord& r,
                                  const std::string& name) {
  for (const NamedRegionRec& o : r.set_objects) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

struct SetSums {
  std::uint64_t hits = 0, misses = 0, evictions = 0, xfers = 0;
  std::uint64_t back_inv = 0, w_dooms = 0, r_dooms = 0;
};

SetSums sum_level(const LevelSetStats& l) {
  SetSums s;
  for (const SetCounters& c : l.counters) {
    s.hits += c.hits;
    s.misses += c.misses;
    s.evictions += c.evictions;
    s.xfers += c.xfers;
    s.back_inv += c.back_invalidations;
    s.w_dooms += c.capacity_write_dooms;
    s.r_dooms += c.capacity_read_dooms;
  }
  return s;
}

/// A contended elision workload with cross-core sharing — exercises L1
/// hits/misses/evictions, LLC transfers and back-invalidations.
RunStats contended_run(Telemetry* tel, BackendKind backend = default_backend(),
                       const std::string& label = "setstats") {
  MachineConfig cfg;
  cfg.telemetry = tel;
  cfg.set_stats = true;
  cfg.backend = backend;
  Machine m(cfg);
  sync::ElidedLock lock(m);
  auto cells = SharedArray<std::uint64_t>::alloc(m, {.name = "cells"}, 512);
  RunStats rs = m.run({.threads = 4, .body = [&](Context& c) {
    for (int i = 0; i < 40; ++i) {
      lock.critical(c, [&] {
        for (int k = 0; k < 24; ++k) {
          auto cell = cells.at((c.tid() * 131 + i * 17 + k) % 512);
          cell.store(c, cell.load(c) + 1);
        }
        c.compute(20);
      });
    }
  }, .label = label});
  return rs;
}

TEST(SetStats, PerSetCountersSumToLevelTotals) {
  // The load-bearing v5 invariant: set-resolved counters are a partition of
  // the existing v4 level totals, not a parallel accounting that can drift.
  Telemetry tel;
  const RunStats rs = contended_run(&tel);
  const RunRecord& r = tel.runs().at(0);
  ASSERT_EQ(r.set_stats.size(), 5u);  // 4 per-core L1s + the LLC
  const ThreadStats tot = rs.total();

  SetSums l1;
  for (int c = 0; c < 4; ++c) {
    const LevelSetStats* lvl = find_level(r, "l1.c" + std::to_string(c));
    ASSERT_NE(lvl, nullptr);
    EXPECT_EQ(lvl->sets, 64u);
    EXPECT_EQ(lvl->ways, 8u);
    const SetSums s = sum_level(*lvl);
    l1.hits += s.hits;
    l1.misses += s.misses;
    l1.evictions += s.evictions;
  }
  EXPECT_EQ(l1.hits, tot.l1_hits);
  EXPECT_EQ(l1.misses, tot.l1_misses);

  const LevelSetStats* llc = find_level(r, "llc");
  ASSERT_NE(llc, nullptr);
  EXPECT_EQ(llc->sets, 64u);
  EXPECT_EQ(llc->ways, 10u);
  const SetSums s = sum_level(*llc);
  EXPECT_EQ(s.hits, tot.llc_hits);
  EXPECT_EQ(s.xfers, tot.xfers_in);
  EXPECT_EQ(s.misses, tot.llc_misses);
  EXPECT_EQ(s.evictions, tot.llc_evictions);
  // An L1 miss is served by exactly one of: a cross-core transfer, an LLC
  // hit, or an LLC fill — so the LLC-level per-set columns also partition
  // the L1 miss total.
  EXPECT_EQ(s.hits + s.xfers + s.misses, tot.l1_misses);

  // Occupancy snapshots are bounded by the geometry.
  for (const LevelSetStats& lvl : r.set_stats) {
    ASSERT_EQ(lvl.occupancy.size(), lvl.sets);
    for (std::uint32_t occ : lvl.occupancy) EXPECT_LE(occ, lvl.ways);
  }
}

TEST(SetStats, WriteCapacityDoomChargedToTheOverflowingL1Set) {
  // 9 same-set writes overflow the 8-way L1 set (hierarchy_test.cc pins the
  // mechanism); v5 additionally pins *where*: the doomed line's set, on the
  // aborting core's L1, carries exactly one capacity_write_doom.
  Telemetry tel;
  MachineConfig cfg;
  cfg.telemetry = &tel;
  cfg.set_stats = true;
  Machine m(cfg);
  const Addr base =
      m.alloc({.name = "probe", .bytes = 32 * kSetStrideLines * cfg.line_bytes});
  m.run({.threads = 1, .body = [&](Context& c) {
    try {
      c.xbegin();
      for (std::size_t i = 0; i < 9; ++i) {
        c.store(base + i * kSetStrideLines * cfg.line_bytes, i + 1);
      }
      c.xend();
    } catch (const TxAbort&) {
    }
  }});

  const RunRecord& r = tel.runs().at(0);
  const ThreadStats tot = r.stats.total();
  ASSERT_EQ(tot.tx_aborted[static_cast<size_t>(AbortCause::kCapacityWrite)],
            1u);
  const LevelSetStats* l1 = find_level(r, "l1.c0");
  ASSERT_NE(l1, nullptr);
  const std::uint32_t target =
      static_cast<std::uint32_t>(cfg.line_of(base)) & (l1->sets - 1);
  std::uint64_t dooms = 0;
  for (std::uint32_t set = 0; set < l1->sets; ++set) {
    dooms += l1->counters[set].capacity_write_dooms;
    if (set != target) {
      EXPECT_EQ(l1->counters[set].capacity_write_dooms, 0u) << set;
    }
  }
  EXPECT_EQ(dooms, 1u);
  EXPECT_EQ(l1->counters[target].capacity_write_dooms, 1u);
  // The whole probe strides one set: every L1 eviction it caused lands
  // there too, and no other set saw any.
  for (std::uint32_t set = 0; set < l1->sets; ++set) {
    if (set != target) {
      EXPECT_EQ(l1->counters[set].evictions, 0u) << set;
    }
  }
  EXPECT_GE(l1->counters[target].evictions, 1u);
}

TEST(SetStats, ReadCapacityDoomAndDrawsChargedToTheLlcSet) {
  // 11 same-set reads overflow the 10-way LLC set with probability 1.0:
  // exactly one capacity_read_doom, in the doomed line's LLC set, and the
  // doom-draw lottery count reconciles with it (prob 1.0: every draw on a
  // read-set line dooms, and only one eviction hit a read-set line).
  Telemetry tel;
  MachineConfig cfg;
  cfg.telemetry = &tel;
  cfg.set_stats = true;
  cfg.read_evict_abort_prob = 1.0;
  Machine m(cfg);
  const Addr base =
      m.alloc({.name = "probe", .bytes = 32 * kSetStrideLines * cfg.line_bytes});
  m.run({.threads = 1, .body = [&](Context& c) {
    try {
      c.xbegin();
      for (std::size_t i = 0; i < 11; ++i) {
        (void)c.load(base + i * kSetStrideLines * cfg.line_bytes);
      }
      c.xend();
    } catch (const TxAbort&) {
    }
  }});

  const RunRecord& r = tel.runs().at(0);
  const ThreadStats tot = r.stats.total();
  ASSERT_EQ(tot.tx_aborted[static_cast<size_t>(AbortCause::kCapacityRead)],
            1u);
  const LevelSetStats* llc = find_level(r, "llc");
  ASSERT_NE(llc, nullptr);
  const std::uint32_t target =
      static_cast<std::uint32_t>(cfg.line_of(base)) & (llc->sets - 1);
  SetSums s = sum_level(*llc);
  EXPECT_EQ(s.r_dooms, 1u);
  EXPECT_EQ(s.w_dooms, 0u);
  EXPECT_EQ(llc->counters[target].capacity_read_dooms, 1u);
  EXPECT_GE(llc->counters[target].doom_draws, 1u);
  for (std::uint32_t set = 0; set < llc->sets; ++set) {
    if (set != target) {
      EXPECT_EQ(llc->counters[set].doom_draws, 0u) << set;
    }
  }
}

TEST(SetStats, CapacityDoomsReconcileWithAbortCauseTotals) {
  // Aggregate reconciliation on a mixed workload: summed over every level
  // and set, write dooms equal the kCapacityWrite abort count and read
  // dooms the kCapacityRead count.
  Telemetry tel;
  MachineConfig cfg;
  cfg.telemetry = &tel;
  cfg.set_stats = true;
  cfg.read_evict_abort_prob = 0.3;
  Machine m(cfg);
  const Addr base =
      m.alloc(32 * kSetStrideLines * cfg.line_bytes, 64);
  m.run({.threads = 2, .body = [&](Context& c) {
    for (int rep = 0; rep < 8; ++rep) {
      try {
        c.xbegin();
        for (std::size_t i = 0; i < 12; ++i) {
          const Addr a = base + i * kSetStrideLines * cfg.line_bytes;
          if (rep % 2 == 0) {
            c.store(a, rep);
          } else {
            (void)c.load(a);
          }
        }
        c.xend();
      } catch (const TxAbort&) {
      }
    }
  }});

  const RunRecord& r = tel.runs().at(0);
  const ThreadStats tot = r.stats.total();
  std::uint64_t w = 0, rd = 0;
  for (const LevelSetStats& lvl : r.set_stats) {
    const SetSums s = sum_level(lvl);
    w += s.w_dooms;
    rd += s.r_dooms;
  }
  EXPECT_EQ(w,
            tot.tx_aborted[static_cast<size_t>(AbortCause::kCapacityWrite)]);
  EXPECT_EQ(rd,
            tot.tx_aborted[static_cast<size_t>(AbortCause::kCapacityRead)]);
  EXPECT_GT(w + rd, 0u);  // the workload actually aborted
}

TEST(SetStats, NamedObjectSetAttributionMatchesAddressLayout) {
  Telemetry tel;
  MachineConfig cfg;
  cfg.telemetry = &tel;
  cfg.set_stats = true;
  Machine m(cfg);
  // `wide` spans more lines than there are sets: covers every set, in both
  // levels. `narrow` spans exactly 3 lines starting at a known set.
  auto wide = SharedArray<std::uint64_t>::alloc(
      m, {.name = "wide"},
      2 * kSetStrideLines * cfg.line_bytes / sizeof(std::uint64_t));
  const Addr narrow = m.alloc({.name = "narrow", .bytes = 3 * cfg.line_bytes});
  (void)wide;
  m.run({.threads = 1, .body = [&](Context& c) { (void)c.load(narrow); }});

  const RunRecord& r = tel.runs().at(0);
  EXPECT_EQ(r.line_bytes, cfg.line_bytes);
  const NamedRegionRec* w = find_object(r, "wide");
  const NamedRegionRec* n = find_object(r, "narrow");
  ASSERT_NE(w, nullptr);
  ASSERT_NE(n, nullptr);

  EXPECT_EQ(w->lines, 2 * kSetStrideLines);
  EXPECT_EQ(w->l1_sets_covered, cfg.l1_sets());    // saturates at the geometry
  EXPECT_EQ(w->llc_sets_covered, cfg.llc_sets());

  EXPECT_EQ(n->base, narrow);
  EXPECT_EQ(n->bytes, 3u * cfg.line_bytes);
  EXPECT_EQ(n->lines, 3u);
  EXPECT_EQ(n->l1_sets_covered, 3u);
  EXPECT_EQ(n->llc_sets_covered, 3u);
  EXPECT_EQ(n->l1_set_start, static_cast<std::uint32_t>(cfg.line_of(narrow)) &
                                 (cfg.l1_sets() - 1));
  EXPECT_EQ(n->llc_set_start, static_cast<std::uint32_t>(cfg.line_of(narrow)) &
                                  (cfg.llc_sets() - 1));
}

TEST(SetStats, PerSliceCountersSumToLlcTotalsOnSlicedMachine) {
  // The v6 decomposition invariants: slice counters partition the LLC level
  // totals, socket counters partition mem_accesses and llc_misses, and the
  // per-set tables (re-keyed "llc.s<i>" when sliced) agree with the slice
  // counters they resolve.
  Telemetry tel;
  MachineConfig cfg;
  cfg.telemetry = &tel;
  cfg.set_stats = true;
  cfg.num_cores = 8;
  cfg.smt_per_core = 1;
  cfg.topology.num_sockets = 2;
  cfg.topology.llc_slices = 4;
  Machine m(cfg);
  auto cells = SharedArray<std::uint64_t>::alloc(m, {.name = "cells"}, 512);
  const RunStats rs = m.run({.threads = 8, .body = [&](Context& c) {
    for (int i = 0; i < 40; ++i) {
      for (int k = 0; k < 24; ++k) {
        auto cell = cells.at((c.tid() * 131 + i * 17 + k) % 512);
        cell.store(c, cell.load(c) + 1);
      }
    }
  }, .label = "sliced"});
  const ThreadStats tot = rs.total();
  const RunRecord& r = tel.runs().at(0);
  const TopologyRec& topo = r.topology;
  ASSERT_EQ(topo.slices, 4);
  ASSERT_EQ(topo.sockets, 2);
  ASSERT_EQ(topo.slice_stats.size(), 4u);
  ASSERT_EQ(topo.socket_stats.size(), 2u);

  SliceStats slice_sum;
  for (const SliceStats& s : topo.slice_stats) {
    slice_sum.hits += s.hits;
    slice_sum.misses += s.misses;
    slice_sum.evictions += s.evictions;
    slice_sum.xfers += s.xfers;
  }
  EXPECT_EQ(slice_sum.hits, tot.llc_hits);
  EXPECT_EQ(slice_sum.misses, tot.llc_misses);
  EXPECT_EQ(slice_sum.evictions, tot.llc_evictions);
  EXPECT_EQ(slice_sum.xfers, tot.xfers_in);

  std::uint64_t accesses = 0, dram_local = 0, dram_remote = 0;
  for (const SocketStats& s : topo.socket_stats) {
    accesses += s.accesses;
    dram_local += s.dram_local;
    dram_remote += s.dram_remote;
  }
  EXPECT_EQ(accesses, tot.mem_accesses);
  EXPECT_EQ(dram_local + dram_remote, tot.llc_misses);

  // Sliced machines re-key the per-set LLC tables "llc.s<i>", one per
  // slice; each table's sums match its slice's counters exactly.
  EXPECT_EQ(find_level(r, "llc"), nullptr);
  ASSERT_EQ(r.set_stats.size(), 12u);  // 8 per-core L1s + 4 LLC slices
  for (int i = 0; i < 4; ++i) {
    const LevelSetStats* lvl = find_level(r, "llc.s" + std::to_string(i));
    ASSERT_NE(lvl, nullptr) << i;
    const SetSums s = sum_level(*lvl);
    EXPECT_EQ(s.hits, topo.slice_stats[i].hits) << i;
    EXPECT_EQ(s.misses, topo.slice_stats[i].misses) << i;
    EXPECT_EQ(s.evictions, topo.slice_stats[i].evictions) << i;
    EXPECT_EQ(s.xfers, topo.slice_stats[i].xfers) << i;
  }
}

TEST(SetStats, ArtifactIsByteIdenticalAcrossBackends) {
  // The v5 set_stats block must not leak host scheduling: fiber and OS
  // thread backends produce the same artifact byte for byte, apart from the
  // run's own `backend` name tag.
  Telemetry fiber_tel, thread_tel;
  contended_run(&fiber_tel, BackendKind::kFiber);
  contended_run(&thread_tel, BackendKind::kThread);
  std::string fiber_json = fiber_tel.json("set_stats_test");
  const std::string thread_json = thread_tel.json("set_stats_test");
  const std::string from = "\"backend\":\"fiber\"";
  const std::size_t at = fiber_json.find(from);
  ASSERT_NE(at, std::string::npos);
  fiber_json.replace(at, from.size(), "\"backend\":\"thread\"");
  EXPECT_EQ(fiber_json, thread_json);
}

TEST(SetStats, DisabledRunsEmitNoSetStatsBlock) {
  Telemetry tel;
  MachineConfig cfg;
  cfg.telemetry = &tel;  // set_stats left at the default (off)
  Machine m(cfg);
  auto cell = Shared<std::uint64_t>::alloc(m, 0);
  m.run({.threads = 1, .body = [&](Context& c) { cell.store(c, 1); }});
  EXPECT_TRUE(tel.runs().at(0).set_stats.empty());
  const std::string j = tel.json("set_stats_test");
  EXPECT_EQ(j.find("\"set_stats\""), std::string::npos);
  // The schema is still v6 — the block is an optional extension, not a
  // schema fork.
  EXPECT_NE(j.find("\"schema\":\"tsxhpc-telemetry-v7\""), std::string::npos);
}

TEST(SetStats, HeatmapRendererShowsTargetedObjectAndGatesOnV5Block) {
  // End-to-end through the artifact: a set-targeted named object shows up
  // in the heatmap's hot-set attribution; artifacts without the block (or
  // a filter matching no level) return false with an explanation.
  Telemetry tel;
  MachineConfig cfg;
  cfg.telemetry = &tel;
  cfg.set_stats = true;
  Machine m(cfg);
  const Addr base =
      m.alloc({.name = "adversary", .bytes = 32 * kSetStrideLines * cfg.line_bytes});
  m.run({.threads = 1, .body = [&](Context& c) {
    for (std::size_t i = 0; i < 12; ++i) {
      c.store(base + i * kSetStrideLines * cfg.line_bytes, i);
    }
  }});

  std::string err;
  const JsonValue doc = JsonParser::parse(tel.json("set_stats_test"), &err);
  ASSERT_EQ(err, "");
  std::string out;
  ASSERT_TRUE(render_set_heatmaps(doc, "all", out)) << out;
  EXPECT_NE(out.find("adversary"), std::string::npos) << out;
  EXPECT_NE(out.find("llc"), std::string::npos);
  out.clear();
  EXPECT_TRUE(render_set_heatmaps(doc, "l1.c0", out)) << out;
  out.clear();
  EXPECT_FALSE(render_set_heatmaps(doc, "l1.c99", out));
  EXPECT_NE(out.find("no cache level matches"), std::string::npos) << out;

  // A run recorded without --set-stats has no block to render.
  Telemetry off;
  MachineConfig plain;
  plain.telemetry = &off;
  Machine m2(plain);
  auto cell = Shared<std::uint64_t>::alloc(m2, 0);
  m2.run({.threads = 1, .body = [&](Context& c) { cell.store(c, 1); }});
  const JsonValue doc2 = JsonParser::parse(off.json("set_stats_test"), &err);
  ASSERT_EQ(err, "");
  out.clear();
  EXPECT_FALSE(render_set_heatmaps(doc2, "all", out));
  EXPECT_NE(out.find("--set-stats"), std::string::npos) << out;

  // The HTML dashboard renders the same artifact without external assets.
  const std::string html = render_html(doc);
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("adversary"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
}

}  // namespace
}  // namespace tsxhpc::sim
