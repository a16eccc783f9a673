// Conflict provenance and cycle accounting on a fully deterministic
// two-thread ping-pong: thread 0 runs hardware transactions over one named
// cache line while thread 1 hammers the same line with plain stores. Every
// doom therefore has a known aggressor (t1), a known victim (t0) and a
// known address — the test pins the whole provenance chain down to exact
// counter identities, and checks the cycle-accounting invariant that every
// thread's buckets sum to its final virtual clock.
#include <gtest/gtest.h>

#include <cstdint>

#include "sim/invariants.h"
#include "sim/machine.h"
#include "sim/shared.h"
#include "sim/stats.h"
#include "sim/telemetry.h"
#include "sync/elision.h"

namespace tsxhpc::sim {
namespace {

TEST(Provenance, PingPongAttributesLineObjectAndAggressor) {
  Telemetry tel;
  MachineConfig cfg;
  cfg.telemetry = &tel;
  Machine m(cfg);
  auto cell = Shared<std::uint64_t>::alloc(m, {.name = "pingpong/cell"}, 0);

  const RunStats rs = m.run({.threads = 2, .body = [&](Context& c) {
    if (c.tid() == 0) {
      // Transactional incrementer; retries until the line quiets down.
      for (int i = 0; i < 8; ++i) {
        for (;;) {
          try {
            c.xbegin();
            cell.store(c, cell.load(c) + 1);
            c.compute(200);
            c.xend();
            break;
          } catch (const TxAbort&) {
            c.compute(60);
          }
        }
      }
    } else {
      // Plain-store aggressor: every write dooms t0's open transaction.
      for (int i = 0; i < 40; ++i) {
        cell.store(c, 0);
        c.compute(100);
      }
    }
  }});

  ASSERT_EQ(tel.runs().size(), 1u);
  const RunRecord& r = tel.runs().at(0);
  ASSERT_TRUE(r.complete);

  // The only conflicting line is the named cell's line.
  ASSERT_EQ(r.conflict_lines.size(), 1u);
  const auto hot = r.conflict_lines_by_heat();
  ASSERT_EQ(hot.size(), 1u);
  const Cycles line_bytes = m.config().line_bytes;
  const Addr expected_line = cell.addr() / line_bytes * line_bytes;
  EXPECT_EQ(hot[0].first, expected_line);
  const ConflictLineStats& cl = *hot[0].second;
  EXPECT_EQ(cl.object, "pingpong/cell");

  // Exact provenance: t1 is the aggressor of every doom, t0 the victim, and
  // every aggressor access was a write.
  EXPECT_GT(cl.dooms, 0u);
  EXPECT_EQ(cl.write_dooms, cl.dooms);
  EXPECT_EQ(cl.read_dooms, 0u);
  ASSERT_EQ(cl.by_aggressor.size(), 2u);
  ASSERT_EQ(cl.by_victim.size(), 2u);
  EXPECT_EQ(cl.by_aggressor[0], 0u);
  EXPECT_EQ(cl.by_aggressor[1], cl.dooms);
  EXPECT_EQ(cl.by_victim[0], cl.dooms);
  EXPECT_EQ(cl.by_victim[1], 0u);

  // Each doom kills exactly one attempt: remote-doom and conflict-abort
  // counters agree with the provenance table.
  const ThreadStats& t0 = rs.threads[0];
  EXPECT_EQ(t0.tx_doomed_by_remote, cl.dooms);
  EXPECT_EQ(t0.tx_aborted[static_cast<std::size_t>(AbortCause::kConflict)],
            cl.dooms);
  EXPECT_EQ(t0.tx_committed, 8u);

  // Cycle accounting: buckets sum to each thread's final clock (the cycles
  // rules of sim/invariants.h), and land where this workload puts them.
  EXPECT_EQ(to_string(check_invariants(tel)), "");
  EXPECT_GT(t0.bucket(CycleBucket::kTxCommitted), 0u);
  EXPECT_GT(t0.bucket(CycleBucket::kTxWasted), 0u);
  EXPECT_EQ(t0.bucket(CycleBucket::kLockWait), 0u);
  EXPECT_EQ(t0.bucket(CycleBucket::kFallback), 0u);
  const ThreadStats& t1 = rs.threads[1];
  EXPECT_EQ(t1.bucket(CycleBucket::kTxCommitted), 0u);
  EXPECT_EQ(t1.bucket(CycleBucket::kTxWasted), 0u);
  EXPECT_EQ(t1.bucket(CycleBucket::kLockWait), 0u);
  EXPECT_EQ(t1.bucket(CycleBucket::kFallback), 0u);
  // t1 ran nothing but plain stores and compute: work + mem_stall is its
  // entire clock, exactly.
  EXPECT_EQ(t1.bucket(CycleBucket::kWork) + t1.bucket(CycleBucket::kMemStall),
            t1.end_cycle);

  // And the run is deterministic: a second identical machine reproduces the
  // provenance table verbatim.
  Telemetry tel2;
  MachineConfig cfg2;
  cfg2.telemetry = &tel2;
  Machine m2(cfg2);
  auto cell2 = Shared<std::uint64_t>::alloc(m2, {.name = "pingpong/cell"}, 0);
  m2.run({.threads = 2, .body = [&](Context& c) {
    if (c.tid() == 0) {
      for (int i = 0; i < 8; ++i) {
        for (;;) {
          try {
            c.xbegin();
            cell2.store(c, cell2.load(c) + 1);
            c.compute(200);
            c.xend();
            break;
          } catch (const TxAbort&) {
            c.compute(60);
          }
        }
      }
    } else {
      for (int i = 0; i < 40; ++i) {
        cell2.store(c, 0);
        c.compute(100);
      }
    }
  }});
  const RunRecord& r2 = tel2.runs().at(0);
  ASSERT_EQ(r2.conflict_lines.size(), 1u);
  EXPECT_EQ(r2.conflict_lines.begin()->second.dooms, cl.dooms);
  EXPECT_EQ(r2.conflict_lines.begin()->first, expected_line);
}

TEST(Provenance, BucketsSumToEndCycleUnderLockContention) {
  // The invariant must also survive the messy paths: elision retries,
  // fallback serialization, futex sleeps and wake-jumps.
  Telemetry tel;
  MachineConfig cfg;
  cfg.telemetry = &tel;
  Machine m(cfg);
  sync::ElidedLock lock(m);
  auto cells = SharedArray<std::uint64_t>::alloc(m, 8, 0);
  const RunStats rs = m.run({.threads = 4, .body = [&](Context& c) {
    for (int i = 0; i < 60; ++i) {
      lock.critical(c, [&] {
        auto cell = cells.at((c.tid() + i) % 8);
        cell.store(c, cell.load(c) + 1);
        c.compute(80);
      });
    }
  }});
  EXPECT_EQ(to_string(check_invariants(tel)), "");
  // Contention makes all the interesting buckets non-empty somewhere.
  const ThreadStats t = rs.total();
  EXPECT_GT(t.bucket(CycleBucket::kTxCommitted), 0u);
  // Post-conflict backoff books into kTxWasted (tracked by the
  // backoff_cycles sub-counter) since the TxPolicy seam — this workload's
  // aborts are all conflicts, so that is where its retry delay shows up.
  EXPECT_GT(t.backoff_cycles, 0u);
  EXPECT_LE(t.backoff_cycles, t.bucket(CycleBucket::kTxWasted));
  // The buckets cover at least the legacy in-region counters — they add the
  // commit/abort latencies (lat_xend, lat_abort) the region counters omit.
  EXPECT_GE(t.bucket(CycleBucket::kTxCommitted), t.tx_cycles_committed);
  EXPECT_GE(t.bucket(CycleBucket::kTxWasted), t.tx_cycles_wasted);
}

}  // namespace
}  // namespace tsxhpc::sim
