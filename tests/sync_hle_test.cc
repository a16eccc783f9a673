// Tests for the HLE (XACQUIRE/XRELEASE) interface and the transactional
// cycle-accounting facilities.
#include <gtest/gtest.h>

#include "sync/elision.h"
#include "sync/hle.h"

namespace tsxhpc::sync {
namespace {

using sim::Context;
using sim::Machine;
using sim::RunStats;
using sim::Shared;
using sim::SharedArray;

TEST(HleLock, UncontendedSectionsElide) {
  Machine m;
  HleLock lock(m);
  auto cell = Shared<std::uint64_t>::alloc(m, 0);
  RunStats rs = m.run({.threads = 1, .body = [&](Context& c) {
    for (int i = 0; i < 50; ++i) {
      lock.critical(c, [&] { cell.store(c, cell.load(c) + 1); });
    }
  }});
  EXPECT_EQ(cell.peek(m), 50u);
  EXPECT_EQ(lock.elided(), 50u);
  EXPECT_EQ(lock.acquired(), 0u);
  EXPECT_EQ(rs.threads[0].tx_committed, 50u);
}

TEST(HleLock, MutualExclusionUnderContention) {
  Machine m;
  HleLock lock(m);
  auto counter = Shared<std::uint64_t>::alloc(m, 0);
  constexpr int kThreads = 8;
  constexpr int kIters = 300;
  m.run({.threads = kThreads, .body = [&](Context& c) {
    for (int i = 0; i < kIters; ++i) {
      lock.critical(c, [&] { counter.store(c, counter.load(c) + 1); });
    }
  }});
  EXPECT_EQ(counter.peek(m), static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(HleLock, HardwarePolicyIsOneRetry) {
  // A section that can never fit must fall back after at most 2 attempts —
  // HLE has no software-controllable retry policy (Section 2 vs Section 3).
  Machine m;
  HleLock lock(m);
  const auto& cfg = m.config();
  const std::size_t lines = cfg.l1_ways + 2;
  const std::size_t stride = cfg.l1_sets() * cfg.line_bytes;
  sim::Addr base = m.alloc(stride * lines, 64);
  m.run({.threads = 1, .body = [&](Context& c) {
    lock.critical(c, [&] {
      for (std::size_t i = 0; i < lines; ++i) c.store(base + i * stride, i);
    });
  }});
  EXPECT_EQ(lock.acquired(), 1u);
  EXPECT_LE(lock.aborts(), 2u);
}

TEST(HleLock, DisjointSectionsScale) {
  auto makespan = [](bool elide) {
    Machine m;
    HleLock lock(m);
    auto cells = SharedArray<std::uint64_t>::alloc(m, 8 * 8, 0);
    RunStats rs = m.run({.threads = 4, .body = [&](Context& c) {
      const std::size_t idx = static_cast<std::size_t>(c.tid()) * 8;
      for (int i = 0; i < 300; ++i) {
        if (elide) {
          lock.critical(c, [&] {
            cells.at(idx).store(c, cells.at(idx).load(c) + 1);
            c.compute(120);
          });
        } else {
          lock.underlying().acquire(c);
          cells.at(idx).store(c, cells.at(idx).load(c) + 1);
          c.compute(120);
          lock.underlying().release(c);
        }
      }
    }});
    return rs.makespan;
  };
  EXPECT_LT(2 * makespan(true), makespan(false));
}

TEST(CycleAccounting, CommittedAndWastedCyclesSplit) {
  Machine m;
  auto cell = Shared<std::uint64_t>::alloc(m, 0);
  RunStats rs = m.run({.threads = 1, .body = [&](Context& c) {
    // One committing transaction with known work.
    c.xbegin();
    c.compute(1000);
    cell.store(c, 1);
    c.xend();
    // One explicitly aborted transaction with known work.
    try {
      c.xbegin();
      c.compute(2000);
      c.xabort(1);
    } catch (const sim::TxAbort&) {
    }
  }});
  const auto& t = rs.threads[0];
  EXPECT_GE(t.tx_cycles_committed, 1000u);
  EXPECT_LT(t.tx_cycles_committed, 1600u);
  EXPECT_GE(t.tx_cycles_wasted, 2000u);
  EXPECT_LT(t.tx_cycles_wasted, 2600u);
}

TEST(CycleAccounting, NestedRegionsCountOnce) {
  Machine m;
  auto cell = Shared<std::uint64_t>::alloc(m, 0);
  RunStats rs = m.run({.threads = 1, .body = [&](Context& c) {
    c.xbegin();
    c.compute(500);
    c.xbegin();  // flat nesting
    c.compute(500);
    cell.store(c, 1);
    c.xend();
    c.compute(500);
    c.xend();
  }});
  const auto& t = rs.threads[0];
  EXPECT_GE(t.tx_cycles_committed, 1500u);
  EXPECT_LT(t.tx_cycles_committed, 2200u) << "not double-counted";
  EXPECT_EQ(t.tx_cycles_wasted, 0u);
}

}  // namespace
}  // namespace tsxhpc::sync
