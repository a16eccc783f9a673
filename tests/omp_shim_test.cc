// Tests for the OpenMP-flavoured compatibility layer, including a port of
// the paper's Listing 1 (graphCluster's test-lock / set-lock double path)
// and Listing 2 (ua's atomic mortar gathers).
#include <gtest/gtest.h>

#include "sim/rng.h"
#include "sync/omp.h"

namespace tsxhpc::omp {
namespace {

using sim::Context;
using sim::Machine;
using sim::Shared;
using sim::SharedArray;

TEST(OmpShim, ParallelForStaticCoversEveryIndexOnce) {
  Machine m;
  auto hits = SharedArray<std::uint64_t>::alloc(m, 1000, 0);
  parallel_for(m, 8, 1000, [&](Context& c, std::size_t i) {
    hits.at(i).fetch_add(c, 1);
  });
  for (std::size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(hits.at(i).peek(m), 1u) << i;
  }
}

TEST(OmpShim, ParallelForDynamicCoversEveryIndexOnce) {
  Machine m;
  auto hits = SharedArray<std::uint64_t>::alloc(m, 777, 0);
  parallel_for(
      m, 8, 777,
      [&](Context& c, std::size_t i) { hits.at(i).fetch_add(c, 1); },
      Schedule::kDynamic, 5);
  for (std::size_t i = 0; i < 777; ++i) {
    EXPECT_EQ(hits.at(i).peek(m), 1u) << i;
  }
}

TEST(OmpShim, AtomicAddIntegralAndFloating) {
  Machine m;
  auto icell = Shared<std::uint64_t>::alloc(m, 0);
  auto fcell = Shared<double>::alloc(m, 0.0);
  m.run({.threads = 8, .body = [&](Context& c) {
    for (int i = 0; i < 100; ++i) {
      atomic_add<std::uint64_t>(c, icell, 1);
      atomic_add(c, fcell, 0.5);
    }
  }});
  EXPECT_EQ(icell.peek(m), 800u);
  EXPECT_DOUBLE_EQ(fcell.peek(m), 400.0);
}

TEST(OmpShim, CriticalMutualExclusion) {
  for (bool elide : {false, true}) {
    Machine m;
    Critical crit(m, elide);
    auto counter = Shared<std::uint64_t>::alloc(m, 0);
    m.run({.threads = 8, .body = [&](Context& c) {
      for (int i = 0; i < 200; ++i) {
        crit.run(c, [&] { counter.store(c, counter.load(c) + 1); });
      }
    }});
    EXPECT_EQ(counter.peek(m), 1600u) << "elide=" << elide;
    if (elide) {
      EXPECT_GT(crit.stats().elided_commits, 0u);
    }
  }
}

TEST(OmpShim, CriticalConsumesTheMachineTxPolicy) {
  // The shim has no retry loop of its own: elided criticals delegate to
  // ElidedLock, which takes its abort/retry/fallback decisions from the
  // machine-selected TxPolicy. Drive every policy through a workload with
  // conflicts (retries), an over-capacity section (fallback), and enough
  // repetitions for the adaptive machinery to engage.
  sim::Cycles paper_span = 0;
  for (sim::TxPolicyKind kind :
       {sim::TxPolicyKind::kPaper, sim::TxPolicyKind::kNoHint,
        sim::TxPolicyKind::kExpoBackoff, sim::TxPolicyKind::kAdaptiveSite}) {
    sim::MachineConfig mc;
    mc.tx_policy = kind;
    Machine m(mc);
    Critical crit(m, /*elide=*/true);
    auto counter = Shared<std::uint64_t>::alloc(m, 0);
    const auto& cfg = m.config();
    const std::size_t lines = cfg.l1_ways + 2;
    const std::size_t stride = cfg.l1_sets() * cfg.line_bytes;
    sim::Addr big = m.alloc(stride * lines, 64);
    sim::RunStats rs = m.run({.threads = 4, .body = [&](Context& c) {
      for (int i = 0; i < 50; ++i) {
        if (i % 10 == 3 && c.tid() == 1) {
          crit.run(c, [&] {  // cannot fit: must fall back under any policy
            for (std::size_t j = 0; j < lines; ++j) {
              c.store(big + j * stride, j);
            }
          });
        } else {
          crit.run(c, [&] { counter.store(c, counter.load(c) + 1); });
        }
      }
    }});
    EXPECT_EQ(counter.peek(m), 4u * 50u - 5u)
        << "mutual exclusion under policy " << sim::to_string(kind);
    EXPECT_GT(crit.stats().elided_commits, 0u) << sim::to_string(kind);
    EXPECT_GT(crit.stats().fallback_acquires, 0u)
        << "oversized sections must fall back under " << sim::to_string(kind);
    if (kind == sim::TxPolicyKind::kPaper) {
      paper_span = rs.makespan;
    } else {
      EXPECT_NE(rs.makespan, paper_span)
          << sim::to_string(kind) << " must steer the shim differently";
    }
  }
}

TEST(OmpShim, Listing1DoublePathBehavesLikeALock) {
  // The paper's Listing 1: omp_test_lock fast path, omp_set_lock slow path.
  Machine m;
  constexpr std::size_t kVertices = 64;
  std::vector<Lock> locks;
  for (std::size_t i = 0; i < kVertices; ++i) locks.emplace_back(m);
  auto status = SharedArray<std::uint64_t>::alloc(m, kVertices, 0);
  std::uint64_t fast = 0, slow = 0;
  m.run({.threads = 8, .body = [&](Context& c) {
    sim::Xoshiro256 rng(c.tid() + 1);
    for (int i = 0; i < 150; ++i) {
      const std::size_t v = rng.next_below(kVertices);
      if (locks[v].test(c)) {  // non-blocking path
        status.at(v).store(c, status.at(v).load(c) + 1);
        c.compute(200);
        locks[v].unset(c);
        fast++;  // host counter: token-serialized
      } else {  // blocking path
        locks[v].set(c);
        status.at(v).store(c, status.at(v).load(c) + 1);
        c.compute(200);
        locks[v].unset(c);
        slow++;
      }
    }
  }});
  std::uint64_t total = 0;
  for (std::size_t v = 0; v < kVertices; ++v) total += status.at(v).peek(m);
  EXPECT_EQ(total, 8u * 150u);
  EXPECT_GT(slow, 0u) << "contention must exercise the blocking path";
  EXPECT_GT(fast, slow) << "but the fast path should dominate";
}

TEST(OmpShim, Listing2AtomicGathersSumExactly) {
  // The paper's Listing 2: four `#pragma omp atomic` adds per point.
  Machine m;
  constexpr std::size_t kMortars = 128;
  constexpr std::size_t kPoints = 512;
  auto tmor = SharedArray<double>::alloc(m, kMortars, 0.0);
  const double third = 1.0 / 3.0;
  parallel_for(m, 8, kPoints, [&](Context& c, std::size_t p) {
    sim::SplitMix64 h(p);
    for (int j = 0; j < 4; ++j) {
      const std::size_t ig = h.next() % kMortars;
      atomic_add(c, tmor.at(ig), (1.0 + p % 7) * third);
    }
  });
  double total = 0, expect = 0;
  for (std::size_t i = 0; i < kMortars; ++i) total += tmor.at(i).peek(m);
  for (std::size_t p = 0; p < kPoints; ++p) {
    expect += 4 * (1.0 + p % 7) * third;
  }
  EXPECT_NEAR(total, expect, 1e-6 * expect);
}

}  // namespace
}  // namespace tsxhpc::omp
