// Tests for the TM macro layer: the same region body must behave
// identically under sgl, tl2, and tsx backends.
#include <gtest/gtest.h>

#include "sim/invariants.h"
#include "sim/rng.h"
#include "sim/telemetry.h"
#include "tmlib/tm.h"

namespace tsxhpc::tmlib {
namespace {

using sim::Context;
using sim::Machine;
using sim::RunStats;
using sim::Shared;
using sim::SharedArray;

class TmBackends : public ::testing::TestWithParam<Backend> {};

TEST_P(TmBackends, CounterIsExactUnderContention) {
  Machine m;
  TmRuntime rt(m, GetParam());
  auto counter = Shared<std::uint64_t>::alloc(m, 0);
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  m.run({.threads = kThreads, .body = [&](Context& c) {
    TmThread t(rt, c);
    for (int i = 0; i < kIters; ++i) {
      t.atomic([&](TmAccess& tm) {
        tm.write(counter, tm.read(counter) + 1);
      });
    }
  }});
  EXPECT_EQ(counter.peek(m), static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST_P(TmBackends, LinkedListInsertionKeepsStructure) {
  // Sorted singly-linked list in shared memory: {next, value} per node.
  Machine m;
  TmRuntime rt(m, GetParam());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  // head sentinel at value 0.
  sim::Addr head = m.alloc(16);
  m.heap().write_word(head, 0, 8);      // next = null
  m.heap().write_word(head + 8, 0, 8);  // value
  std::vector<sim::Addr> node_pool;
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    node_pool.push_back(m.alloc(16));
  }
  m.run({.threads = kThreads, .body = [&](Context& c) {
    TmThread t(rt, c);
    sim::Xoshiro256 rng(7 + c.tid());
    for (int i = 0; i < kPerThread; ++i) {
      const sim::Addr node = node_pool[c.tid() * kPerThread + i];
      const std::uint64_t value = 1 + rng.next_below(10000);
      m.heap().write_word(node + 8, value, 8);  // private until linked
      t.atomic([&](TmAccess& tm) {
        sim::Addr prev = head;
        sim::Addr cur = tm.read(head);
        while (cur != 0 && tm.read(cur + 8) < value) {
          prev = cur;
          cur = tm.read(cur);
        }
        tm.write(node, cur);
        tm.write(prev, static_cast<std::uint64_t>(node));
      });
    }
  }});
  // Verify: sorted, and exactly kThreads*kPerThread nodes.
  int count = 0;
  std::uint64_t last = 0;
  for (sim::Addr cur = m.heap().read_word(head, 8); cur != 0;
       cur = m.heap().read_word(cur, 8)) {
    const std::uint64_t v = m.heap().read_word(cur + 8, 8);
    EXPECT_GE(v, last);
    last = v;
    count++;
  }
  EXPECT_EQ(count, kThreads * kPerThread);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TmBackends,
                         ::testing::Values(Backend::kSgl, Backend::kTl2,
                                           Backend::kTsx, Backend::kTicToc,
                                           Backend::kTicTocHybrid,
                                           Backend::kMvcc),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           std::string name = to_string(info.param);
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(TmLib, SglSerializesDisjointRegions) {
  // Control experiment for the elision test: under sgl, disjoint critical
  // sections do NOT scale; under tsx they do.
  auto makespan = [](Backend b) {
    Machine m;
    TmRuntime rt(m, b);
    auto cells = SharedArray<std::uint64_t>::alloc(m, 4 * 8, 0);
    RunStats rs = m.run({.threads = 4, .body = [&](Context& c) {
      TmThread t(rt, c);
      const std::size_t idx = static_cast<std::size_t>(c.tid()) * 8;
      for (int i = 0; i < 300; ++i) {
        t.atomic([&](TmAccess& tm) {
          tm.write(cells.addr(idx), tm.read(cells.addr(idx)) + 1);
          tm.ctx().compute(120);
        });
      }
    }});
    return rs.makespan;
  };
  EXPECT_GT(makespan(Backend::kSgl), 2 * makespan(Backend::kTsx));
}

TEST(TmLib, Tl2AbortStatsReported) {
  Machine m;
  TmRuntime rt(m, Backend::kTl2);
  auto cell = Shared<std::uint64_t>::alloc(m, 0);
  m.run({.threads = 8, .body = [&](Context& c) {
    TmThread t(rt, c);
    for (int i = 0; i < 100; ++i) {
      t.atomic([&](TmAccess& tm) {
        tm.write(cell, tm.read(cell) + 1);
        tm.ctx().compute(200);
      });
    }
  }});
  const sim::CcStats& cc = rt.cc_stats();
  EXPECT_EQ(cc.scheme, "tl2");
  EXPECT_GE(cc.starts, 800u);
  EXPECT_GT(cc.aborts, 0u) << "8 threads on one cell must conflict";
  EXPECT_EQ(cc.commits, 800u) << "every region must eventually commit";
}

// The v7 reconciliation invariants, through the run's cc block: starts =
// commits + aborts, every abort carries exactly one class, and no STM
// scheme starts a hardware transaction (the cc rules of sim/invariants.h).
// Run a contended counter under every STM scheme.
TEST(TmLib, CcStatsReconcileAcrossStmSchemes) {
  for (Backend b : {Backend::kTl2, Backend::kTicToc, Backend::kTicTocHybrid,
                    Backend::kMvcc}) {
    sim::Telemetry tel;
    sim::MachineConfig cfg;
    cfg.telemetry = &tel;
    Machine m(cfg);
    TmRuntime rt(m, b);
    auto cell = Shared<std::uint64_t>::alloc(m, 0);
    m.run({.threads = 4, .body = [&](Context& c) {
      TmThread t(rt, c);
      for (int i = 0; i < 50; ++i) {
        t.atomic([&](TmAccess& tm) {
          tm.write(cell, tm.read(cell) + 1);
          tm.ctx().compute(100);
        });
      }
    }});
    const sim::CcStats& cc = rt.cc_stats();
    EXPECT_EQ(cc.scheme, to_string(b));
    EXPECT_EQ(cc.commits, 200u) << to_string(b);
    EXPECT_EQ(sim::to_string(sim::check_invariants(tel)), "") << to_string(b);
    EXPECT_EQ(cell.peek(m), 200u) << to_string(b);
  }
}

// Region-level accounting for the non-STM schemes: every region is one
// start + one commit, aborts are zero (hardware retries live below the
// seam, in the telemetry attempt chains).
TEST(TmLib, CcStatsRegionLevelForDirectSchemes) {
  for (Backend b : {Backend::kSgl, Backend::kTsx}) {
    Machine m;
    TmRuntime rt(m, b);
    auto cell = Shared<std::uint64_t>::alloc(m, 0);
    m.run({.threads = 4, .body = [&](Context& c) {
      TmThread t(rt, c);
      for (int i = 0; i < 50; ++i) {
        t.atomic(
            [&](TmAccess& tm) { tm.write(cell, tm.read(cell) + 1); });
      }
    }});
    const sim::CcStats& cc = rt.cc_stats();
    EXPECT_EQ(cc.scheme, to_string(b));
    EXPECT_EQ(cc.starts, 200u) << to_string(b);
    EXPECT_EQ(cc.commits, 200u) << to_string(b);
    EXPECT_EQ(cc.aborts, 0u) << to_string(b);
  }
}

// MVCC's reason to exist: read-only transactions are free snapshots — they
// never fail validation, even racing concurrent writers.
TEST(TmLib, MvccReadOnlySnapshotsCommitWithoutValidation) {
  Machine m;
  TmRuntime rt(m, Backend::kMvcc);
  auto cells = SharedArray<std::uint64_t>::alloc(m, 64, 0);
  constexpr int kReaders = 3;
  constexpr int kRoRegions = 60;
  m.run({.threads = 4, .body = [&](Context& c) {
    TmThread t(rt, c);
    if (c.tid() == 0) {
      // One writer churning versions under the readers.
      for (int i = 0; i < 120; ++i) {
        t.atomic([&](TmAccess& tm) {
          const std::size_t idx = static_cast<std::size_t>(i) % 64;
          tm.write(cells.addr(idx), tm.read(cells.addr(idx)) + 1);
        });
      }
    } else {
      for (int i = 0; i < kRoRegions; ++i) {
        t.atomic([&](TmAccess& tm) {
          std::uint64_t sum = 0;
          for (std::size_t j = 0; j < 64; ++j) sum += tm.read(cells.addr(j));
          tm.ctx().compute(sum & 1);  // consume
        });
      }
    }
  }});
  const sim::CcStats& cc = rt.cc_stats();
  EXPECT_EQ(cc.snapshot_commits,
            static_cast<std::uint64_t>(kReaders) * kRoRegions)
      << "every read-only region must commit as a free snapshot";
  EXPECT_EQ(cc.aborts_read_validation, 0u) << "MVCC reads never abort";
  EXPECT_GT(cc.versions_created, 0u);
  EXPECT_LE(cc.gc_reclaims, cc.versions_created);
}

// TicToc's signature move: commit-time rts extension instead of aborting on
// merely-old reads.
TEST(TmLib, TicTocExtendsReadTimestamps) {
  Machine m;
  TmRuntime rt(m, Backend::kTicToc);
  auto cells = SharedArray<std::uint64_t>::alloc(m, 8, 0);
  m.run({.threads = 4, .body = [&](Context& c) {
    TmThread t(rt, c);
    for (int i = 0; i < 80; ++i) {
      t.atomic([&](TmAccess& tm) {
        // Read one cell, write another: the read's rts must be extended
        // past concurrent writers' commit timestamps.
        const std::size_t r = static_cast<std::size_t>(c.tid()) % 8;
        const std::size_t w = static_cast<std::size_t>(c.tid() + 1 + i) % 8;
        const std::uint64_t v = tm.read(cells.addr(r));
        tm.write(cells.addr(w), v + 1);
        tm.ctx().compute(60);
      });
    }
  }});
  const sim::CcStats& cc = rt.cc_stats();
  EXPECT_EQ(cc.starts, cc.commits + cc.aborts);
  EXPECT_GT(cc.read_set_extensions, 0u)
      << "contended read/write mix must trigger rts extensions";
}

TEST(TmLib, TsxSingleThreadOverheadIsSmall) {
  // Figure 2's key single-thread observation: tsx ≈ sgl, tl2 much slower.
  auto makespan = [](Backend b) {
    Machine m;
    TmRuntime rt(m, b);
    auto cells = SharedArray<std::uint64_t>::alloc(m, 512, 0);
    RunStats rs = m.run({.threads = 1, .body = [&](Context& c) {
      TmThread t(rt, c);
      for (int i = 0; i < 200; ++i) {
        t.atomic([&](TmAccess& tm) {
          for (int j = 0; j < 16; ++j) {
            const std::size_t idx = (i * 16 + j) % 512;
            tm.write(cells.addr(idx), tm.read(cells.addr(idx)) + 1);
          }
        });
      }
    }});
    return static_cast<double>(rs.makespan);
  };
  const double sgl = makespan(Backend::kSgl);
  const double tsx = makespan(Backend::kTsx);
  const double tl2 = makespan(Backend::kTl2);
  EXPECT_LT(tsx, 1.6 * sgl) << "tsx single-thread cost comparable to sgl";
  EXPECT_GT(tl2, 1.8 * sgl) << "tl2 pays instrumentation at one thread";
}

}  // namespace
}  // namespace tsxhpc::tmlib
