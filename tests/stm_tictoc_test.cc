// Unit tests for the TicToc timestamp-ordering OCC (the properties every
// STM scheme shares are in stm_property_test.cc).
#include <gtest/gtest.h>

#include <vector>

#include "stm/tictoc.h"

namespace tsxhpc::stm {
namespace {

using sim::Context;
using sim::Machine;
using sim::Shared;

TEST(TicToc, TsWordPackingRoundTrips) {
  for (std::uint64_t wts :
       {std::uint64_t{0}, std::uint64_t{2}, std::uint64_t{1000},
        TicTocSpace::kWtsMax}) {
    for (std::uint64_t delta :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{77}}) {
      for (bool locked : {false, true}) {
        const std::uint64_t w = TicTocSpace::pack(wts, wts + delta, locked);
        EXPECT_EQ(TicTocSpace::wts(w), wts);
        EXPECT_EQ(TicTocSpace::rts(w), wts + delta);
        EXPECT_EQ(TicTocSpace::locked(w), locked);
      }
    }
  }
  // The delta field saturates instead of overflowing into garbage.
  const std::uint64_t w =
      TicTocSpace::pack(10, 10 + TicTocSpace::kDeltaMax + 5, false);
  EXPECT_EQ(TicTocSpace::wts(w), 10u);
  EXPECT_EQ(TicTocSpace::rts(w), 10 + TicTocSpace::kDeltaMax);
}

TEST(TicToc, RtsExtensionSavesMerelyOldReads) {
  // Thread 0 reads A early, then commits a write to B *after* thread 1 has
  // advanced B's timestamps. Its commit_ts exceeds A's rts, but A itself
  // never changed — TicToc extends A's rts in place instead of aborting
  // (TL2 would abort here: the clock moved past the snapshot).
  sim::MachineConfig cfg;
  cfg.sched_quantum = 0;
  Machine m(cfg);
  TicTocSpace space(m);
  auto a = Shared<std::uint64_t>::alloc(m, 1);
  auto b = Shared<std::uint64_t>::alloc(m, 2);
  std::uint64_t extensions = 0, aborts = 0;
  m.run({.bodies = {
      [&](Context& c) {
        TicTocTx tx(space);
        tx.begin(c);
        (void)tx.read(c, a.addr());
        for (int i = 0; i < 100; ++i) c.compute(100);  // let thread 1 commit
        tx.write(c, b.addr(), 20);
        tx.commit(c);
        extensions = tx.stats().read_set_extensions;
        aborts = tx.stats().aborts;
      },
      [&](Context& c) {
        c.compute(500);
        TicTocTx tx(space);
        tx.begin(c);
        (void)tx.read(c, b.addr());
        tx.write(c, b.addr(), 10);
        tx.commit(c);
      },
  }});
  EXPECT_EQ(aborts, 0u);
  EXPECT_GE(extensions, 1u);
  EXPECT_EQ(b.peek(m), 20u);
}

TEST(TicToc, LockModeReadOfHeldStripeAbortsNoWait) {
  // No-wait read locking: a stripe held by another transaction aborts the
  // reader immediately (lock_acquire class) instead of deadlocking.
  sim::MachineConfig cfg;
  cfg.sched_quantum = 0;
  Machine m(cfg);
  TicTocSpace space(m);
  auto cell = Shared<std::uint64_t>::alloc(m, 7);
  StmAbortKind kind = StmAbortKind::kReadValidation;
  bool aborted = false;
  m.run({.bodies = {
      [&](Context& c) {
        TicTocTx tx(space, TicTocReadMode::kLock);
        tx.begin(c);
        (void)tx.read(c, cell.addr());  // holds the stripe read lock
        for (int i = 0; i < 100; ++i) c.compute(100);
        tx.commit(c);
      },
      [&](Context& c) {
        c.compute(500);
        TicTocTx tx(space, TicTocReadMode::kLock);
        tx.begin(c);
        try {
          (void)tx.read(c, cell.addr());
          tx.commit(c);
        } catch (const StmAbort& a) {
          aborted = true;
          kind = a.kind;
        }
      },
  }});
  EXPECT_TRUE(aborted);
  EXPECT_EQ(kind, StmAbortKind::kLockAcquire);
}

TEST(TicToc, HybridLocksReadsOnlyOnRetry) {
  // tictoc-hybrid's switch is the descriptor's own: an aborted optimistic
  // attempt makes the retry take its read stripes' locks, and a commit
  // makes the next region optimistic again.
  Machine m;
  TicTocSpace space(m);
  auto cell = Shared<std::uint64_t>::alloc(m, 7);
  const sim::Addr ts = space.word_for(cell.addr()).addr();
  const std::uint64_t free_word = m.heap().read_word(ts, 8);
  std::vector<bool> read_locked;
  m.run({.threads = 1, .body = [&](Context& c) {
    TicTocTx tx(space, TicTocReadMode::kHybrid);
    auto attempt = [&] {
      tx.begin(c);
      (void)tx.read(c, cell.addr());
      read_locked.push_back(TicTocSpace::locked(m.heap().read_word(ts, 8)));
      tx.commit(c);
    };
    m.heap().write_word(ts, free_word | 1, 8);  // a committer holds it
    EXPECT_THROW(attempt(), StmAbort);
    m.heap().write_word(ts, free_word, 8);
    attempt();
    attempt();
    EXPECT_EQ(tx.stats().aborts_lock_acquire, 1u);
    EXPECT_EQ(tx.stats().commits, 2u);
  }});
  EXPECT_EQ(read_locked, (std::vector<bool>{true, false}));
}

}  // namespace
}  // namespace tsxhpc::stm
