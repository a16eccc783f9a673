// Unit tests for the MVCC layer: snapshot reads, version chains,
// validation-free read-only commits, epoch GC (the properties every STM
// scheme shares are in stm_property_test.cc).
#include <gtest/gtest.h>

#include "sim/rng.h"
#include "stm/mvcc.h"

namespace tsxhpc::stm {
namespace {

using sim::Context;
using sim::Machine;
using sim::Shared;
using sim::SharedArray;

TEST(Mvcc, SnapshotReadSeesPreImageAcrossConcurrentCommit) {
  // The defining MVCC behaviour: a reader that began before a writer's
  // commit keeps seeing the pre-image afterwards — from the version chain —
  // and still commits read-only with zero aborts. TL2 aborts in this exact
  // schedule (stripe version moves past the snapshot).
  sim::MachineConfig cfg;
  cfg.sched_quantum = 0;
  Machine m(cfg);
  MvccSpace space(m);
  auto cell = Shared<std::uint64_t>::alloc(m, 5);
  std::uint64_t first = 0, second = 0, aborts = 1;
  m.run({.bodies = {
      [&](Context& c) {
        MvccTx tx(space);
        tx.begin(c);
        first = tx.read(c, cell.addr());
        for (int i = 0; i < 100; ++i) c.compute(100);  // writer commits now
        second = tx.read(c, cell.addr());
        tx.commit(c);
        aborts = tx.stats().aborts;
        EXPECT_EQ(tx.stats().snapshot_commits, 1u);
        EXPECT_GT(tx.stats().version_chain_hops, 0u)
            << "the second read must come from the chain";
      },
      [&](Context& c) {
        c.compute(500);
        MvccTx tx(space);
        tx.begin(c);
        tx.write(c, cell.addr(), 42);
        tx.commit(c);
      },
  }});
  EXPECT_EQ(first, 5u);
  EXPECT_EQ(second, 5u) << "snapshot must not observe the later commit";
  EXPECT_EQ(aborts, 0u);
  EXPECT_EQ(cell.peek(m), 42u);
}

TEST(Mvcc, ReadOnlySumsAreSnapshotConsistent) {
  // Transfers preserve a global invariant; a read-only scan that sums all
  // accounts must see *exactly* the invariant total at any snapshot — and
  // never abort doing so.
  Machine m;
  MvccSpace space(m);
  constexpr int kAccounts = 16;
  constexpr std::uint64_t kInitial = 100;
  auto accounts = SharedArray<std::uint64_t>::alloc(m, kAccounts, kInitial);
  int bad_sums = 0;
  std::uint64_t reader_aborts = 0;
  m.run({.threads = 4, .body = [&](Context& c) {
    MvccTx tx(space);
    sim::Xoshiro256 rng(31 + c.tid());
    if (c.tid() < 2) {
      // Writers: random transfers.
      for (int i = 0; i < 150; ++i) {
        const std::size_t from = rng.next_below(kAccounts);
        const std::size_t to = rng.next_below(kAccounts);
        for (;;) {
          tx.begin(c);
          try {
            const auto f = tx.read(c, accounts.addr(from));
            const auto t = tx.read(c, accounts.addr(to));
            if (f >= 7 && from != to) {
              tx.write(c, accounts.addr(from), f - 7);
              tx.write(c, accounts.addr(to), t + 7);
            }
            tx.commit(c);
            break;
          } catch (const StmAbort&) {
            c.compute(200);
          }
        }
      }
    } else {
      // Readers: full-table scans, no retry loop — they cannot abort.
      for (int i = 0; i < 100; ++i) {
        tx.begin(c);
        std::uint64_t sum = 0;
        for (int j = 0; j < kAccounts; ++j) {
          sum += tx.read(c, accounts.addr(j));
        }
        tx.commit(c);
        if (sum != static_cast<std::uint64_t>(kAccounts) * kInitial) {
          bad_sums++;
        }
      }
      reader_aborts += tx.stats().aborts;
    }
  }});
  EXPECT_EQ(bad_sums, 0) << "a snapshot scan must never see a torn transfer";
  EXPECT_EQ(reader_aborts, 0u);
  std::uint64_t total = 0;
  for (int i = 0; i < kAccounts; ++i) total += accounts.at(i).peek(m);
  EXPECT_EQ(total, static_cast<std::uint64_t>(kAccounts) * kInitial);
}

TEST(Mvcc, EpochGcReclaimsUnreachableVersions) {
  Machine m;
  MvccSpace space(m);
  auto cell = Shared<std::uint64_t>::alloc(m, 0);
  std::uint64_t gc_runs = 0, gc_reclaims = 0, versions = 0;
  m.run({.threads = 1, .body = [&](Context& c) {
    MvccTx tx(space);
    // Enough update commits to cross the GC cadence several times; with no
    // other snapshot live, everything old is reclaimable.
    for (int i = 0; i < 3 * static_cast<int>(MvccSpace::kGcInterval); ++i) {
      tx.begin(c);
      tx.write(c, cell.addr(), static_cast<std::uint64_t>(i));
      tx.commit(c);
    }
    gc_runs = tx.stats().gc_runs;
    gc_reclaims = tx.stats().gc_reclaims;
    versions = tx.stats().versions_created;
  }});
  EXPECT_GE(gc_runs, 3u);
  EXPECT_GT(gc_reclaims, 0u);
  EXPECT_LE(gc_reclaims, versions);
}

TEST(Mvcc, StaleUpdateTransactionsAbortAtCommit) {
  // Serializability guard: an *update* transaction whose read went through
  // the chain (snapshot older than the stripe) must fail commit validation
  // — first committer wins, no write-skew-style lost updates.
  sim::MachineConfig cfg;
  cfg.sched_quantum = 0;
  Machine m(cfg);
  MvccSpace space(m);
  auto cell = Shared<std::uint64_t>::alloc(m, 1);
  bool aborted = false;
  StmAbortKind kind = StmAbortKind::kReadValidation;
  m.run({.bodies = {
      [&](Context& c) {
        MvccTx tx(space);
        tx.begin(c);
        const auto v = tx.read(c, cell.addr());
        for (int i = 0; i < 100; ++i) c.compute(100);  // writer commits now
        tx.write(c, cell.addr(), v + 100);
        try {
          tx.commit(c);
        } catch (const StmAbort& a) {
          aborted = true;
          kind = a.kind;
        }
      },
      [&](Context& c) {
        c.compute(500);
        MvccTx tx(space);
        tx.begin(c);
        tx.write(c, cell.addr(), 42);
        tx.commit(c);
      },
  }});
  EXPECT_TRUE(aborted);
  EXPECT_TRUE(kind == StmAbortKind::kLockAcquire ||
              kind == StmAbortKind::kCommitValidation);
  EXPECT_EQ(cell.peek(m), 42u) << "only the first committer's write lands";
}

}  // namespace
}  // namespace tsxhpc::stm
