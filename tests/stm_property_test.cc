// Properties every software-TM descriptor must have, run once per scheme:
// TL2, TicToc with each read mode, and MVCC. Each case also reconciles the
// descriptors' own counters (the only copy tmlib reports): every start ends
// in a commit or an abort, and the abort classes partition the aborts.
#include <gtest/gtest.h>

#include "sim/rng.h"
#include "stm/mvcc.h"
#include "stm/tictoc.h"
#include "stm/tl2.h"

// One type per scheme; ctest names each case after it, e.g.
// `StmProperty.ReadYourOwnWrites<TicTocLock>`.
struct Tl2 {
  using Space = tsxhpc::stm::Tl2Space;
  static tsxhpc::stm::Tl2Tx tx(Space& s) { return tsxhpc::stm::Tl2Tx(s); }
};

template <tsxhpc::stm::TicTocReadMode kMode>
struct TicTocIn {
  using Space = tsxhpc::stm::TicTocSpace;
  static tsxhpc::stm::TicTocTx tx(Space& s) {
    return tsxhpc::stm::TicTocTx(s, kMode);
  }
};
struct TicTocOcc : TicTocIn<tsxhpc::stm::TicTocReadMode::kOcc> {};
struct TicTocLock : TicTocIn<tsxhpc::stm::TicTocReadMode::kLock> {};
struct TicTocHybrid : TicTocIn<tsxhpc::stm::TicTocReadMode::kHybrid> {};

struct Mvcc {
  using Space = tsxhpc::stm::MvccSpace;
  static tsxhpc::stm::MvccTx tx(Space& s) { return tsxhpc::stm::MvccTx(s); }
};

namespace tsxhpc::stm {
namespace {

using sim::Context;
using sim::Machine;
using sim::Shared;
using sim::SharedArray;

using Schemes =
    ::testing::Types<Tl2, TicTocOcc, TicTocLock, TicTocHybrid, Mvcc>;

template <typename S>
class StmProperty : public ::testing::Test {
 protected:
  using Space = typename S::Space;

  /// Run `body` as one transaction on `tx`, retrying until it commits.
  template <typename Tx, typename F>
  static void atomically(Context& c, Tx& tx, F&& body) {
    for (;;) {
      tx.begin(c);
      try {
        body();
        tx.commit(c);
        return;
      } catch (const StmAbort&) {
        c.compute(150);
      }
    }
  }

  /// Fold a finished descriptor's counters into `total_`.
  template <typename Tx>
  void collect(const Tx& tx) {
    total_.merge(tx.stats());
  }

  void TearDown() override {
    EXPECT_EQ(total_.starts, total_.commits + total_.aborts);
    EXPECT_EQ(total_.aborts, total_.aborts_read_validation +
                                 total_.aborts_lock_acquire +
                                 total_.aborts_commit_validation);
  }

  sim::CcStats total_;
};

TYPED_TEST_SUITE(StmProperty, Schemes);

TYPED_TEST(StmProperty, ReadYourOwnWrites) {
  Machine m;
  typename TestFixture::Space space(m);
  auto cell = Shared<std::uint64_t>::alloc(m, 3);
  m.run({.threads = 1, .body = [&](Context& c) {
    auto tx = TypeParam::tx(space);
    tx.begin(c);
    EXPECT_EQ(tx.read(c, cell.addr()), 3u);
    tx.write(c, cell.addr(), 9);
    EXPECT_EQ(tx.read(c, cell.addr()), 9u);
    EXPECT_EQ(cell.peek(m), 3u) << "no write-back before commit";
    tx.commit(c);
    this->collect(tx);
  }});
  EXPECT_EQ(cell.peek(m), 9u);
  EXPECT_EQ(this->total_.commits, 1u);
}

TYPED_TEST(StmProperty, SubWordWritesMerge) {
  Machine m;
  typename TestFixture::Space space(m);
  sim::Addr a = m.alloc(8);
  m.heap().write_word(a, 0x1111111111111111ULL, 8);
  m.run({.threads = 1, .body = [&](Context& c) {
    auto tx = TypeParam::tx(space);
    tx.begin(c);
    tx.write(c, a, 0xAB, 1);
    tx.write(c, a + 4, 0xCDEF, 2);
    EXPECT_EQ(tx.read(c, a, 1), 0xABu);
    EXPECT_EQ(tx.read(c, a + 4, 4), 0x1111CDEFu);
    tx.commit(c);
    this->collect(tx);
  }});
  EXPECT_EQ(m.heap().read_word(a, 8), 0x1111CDEF111111ABULL);
  EXPECT_EQ(this->total_.commits, 1u);
}

TYPED_TEST(StmProperty, CounterIncrementsAreLinearizable) {
  Machine m;
  typename TestFixture::Space space(m);
  auto counter = Shared<std::uint64_t>::alloc(m, 0);
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  m.run({.threads = kThreads, .body = [&](Context& c) {
    auto tx = TypeParam::tx(space);
    for (int i = 0; i < kIters; ++i) {
      this->atomically(c, tx, [&] {
        const auto v = tx.read(c, counter.addr());
        tx.write(c, counter.addr(), v + 1);
      });
    }
    this->collect(tx);
  }});
  EXPECT_EQ(counter.peek(m), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(this->total_.commits,
            static_cast<std::uint64_t>(kThreads) * kIters);
}

// A bank-transfer invariant under concurrent updates.
TYPED_TEST(StmProperty, MoneyConservationProperty) {
  Machine m;
  typename TestFixture::Space space(m);
  constexpr int kAccounts = 32;
  constexpr std::uint64_t kInitial = 1000;
  auto accounts = SharedArray<std::uint64_t>::alloc(m, kAccounts, kInitial);
  m.run({.threads = 8, .body = [&](Context& c) {
    auto tx = TypeParam::tx(space);
    sim::Xoshiro256 rng(99 + c.tid());
    for (int i = 0; i < 200; ++i) {
      const std::size_t from = rng.next_below(kAccounts);
      const std::size_t to = rng.next_below(kAccounts);
      const std::uint64_t amt = rng.next_below(20);
      this->atomically(c, tx, [&] {
        const auto f = tx.read(c, accounts.addr(from));
        const auto t = tx.read(c, accounts.addr(to));
        if (f >= amt && from != to) {
          tx.write(c, accounts.addr(from), f - amt);
          tx.write(c, accounts.addr(to), t + amt);
        }
      });
    }
    this->collect(tx);
  }});
  std::uint64_t total = 0;
  for (int i = 0; i < kAccounts; ++i) total += accounts.at(i).peek(m);
  EXPECT_EQ(total, static_cast<std::uint64_t>(kAccounts) * kInitial);
  EXPECT_EQ(this->total_.commits, 8u * 200u);
}

}  // namespace
}  // namespace tsxhpc::stm
