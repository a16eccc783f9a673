// Unit tests for the TL2 software transactional memory (the properties
// every STM scheme shares are in stm_property_test.cc).
#include <gtest/gtest.h>

#include "stm/tl2.h"

namespace tsxhpc::stm {
namespace {

using sim::Context;
using sim::Machine;
using sim::Shared;
using sim::SharedArray;

TEST(Tl2, ConflictingWriterAbortsReader) {
  // A committed writer bumps the stripe version past the reader's snapshot.
  sim::MachineConfig cfg;
  cfg.sched_quantum = 0;
  Machine m(cfg);
  Tl2Space space(m);
  auto cell = Shared<std::uint64_t>::alloc(m, 0);
  int aborts = 0;
  m.run({.bodies = {
      [&](Context& c) {
        Tl2Tx tx(space);
        tx.begin(c);
        (void)tx.read(c, cell.addr());
        for (int i = 0; i < 300; ++i) c.compute(100);
        try {
          (void)tx.read(c, cell.addr() + 8 < cell.addr() ? cell.addr()
                                                         : cell.addr());
          tx.commit(c);
        } catch (const StmAbort&) {
          aborts++;
        }
      },
      [&](Context& c) {
        c.compute(4000);
        Tl2Tx tx(space);
        tx.begin(c);
        tx.write(c, cell.addr(), 42);
        tx.commit(c);
      },
  }});
  // The reader either aborted at re-read/commit validation, or it committed
  // read-only before the writer — with these delays it must abort.
  EXPECT_EQ(aborts, 1);
}

TEST(Tl2, ReadOnlyTransactionsAreCheapAndNeverBlockEachOther) {
  Machine m;
  Tl2Space space(m);
  auto cells = SharedArray<std::uint64_t>::alloc(m, 64, 5);
  std::uint64_t aborts_total = 0;
  m.run({.threads = 8, .body = [&](Context& c) {
    Tl2Tx tx(space);
    for (int i = 0; i < 50; ++i) {
      tx.begin(c);
      std::uint64_t sum = 0;
      for (int j = 0; j < 64; ++j) sum += tx.read(c, cells.addr(j));
      tx.commit(c);
      EXPECT_EQ(sum, 64u * 5u);
    }
    aborts_total += tx.stats().aborts;
  }});
  EXPECT_EQ(aborts_total, 0u);
}

TEST(Tl2, InstrumentationCostsMoreThanPlainAccess) {
  // The Figure 2 single-thread story: TL2 reads are ~3 shared accesses.
  Machine m;
  Tl2Space space(m);
  auto cells = SharedArray<std::uint64_t>::alloc(m, 256, 1);
  sim::Cycles plain_t = 0, stm_t = 0;
  m.run({.threads = 1, .body = [&](Context& c) {
    // Warm the cache identically first.
    for (int j = 0; j < 256; ++j) (void)c.load(cells.addr(j));
    sim::Cycles t0 = c.now();
    for (int j = 0; j < 256; ++j) (void)c.load(cells.addr(j));
    plain_t = c.now() - t0;

    Tl2Tx tx(space);
    tx.begin(c);
    t0 = c.now();
    for (int j = 0; j < 256; ++j) (void)tx.read(c, cells.addr(j));
    stm_t = c.now() - t0;
    tx.commit(c);
  }});
  EXPECT_GT(stm_t, 2 * plain_t);
}

}  // namespace
}  // namespace tsxhpc::stm
