// Unit tests for the memory system: heap, cache model, coherence costs,
// transactional read/write sets, conflicts, and capacity aborts.
#include <gtest/gtest.h>

#include "sim/machine.h"
#include "sim/shared.h"

namespace tsxhpc::sim {
namespace {

MachineConfig quantum0() {
  MachineConfig cfg;
  cfg.sched_quantum = 0;  // precise interleaving for unit tests
  return cfg;
}

TEST(SharedHeap, AllocateAlignsAndGrows) {
  SharedHeap h(64);
  Addr a = h.allocate(10, 8);
  EXPECT_EQ(a % 8, 0u);
  Addr b = h.allocate(1000, 64);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GT(b, a);
  // Growth beyond the initial 1 MB backing store.
  Addr big = h.allocate(8u << 20, 64);
  h.write_word(big + (8u << 20) - 8, 0xDEADBEEF, 8);
  EXPECT_EQ(h.read_word(big + (8u << 20) - 8, 8), 0xDEADBEEFu);
}

TEST(SharedHeap, NullAndOutOfBoundsRejected) {
  SharedHeap h(64);
  EXPECT_THROW(h.read_word(kNullAddr, 8), SimError);
  EXPECT_THROW(h.read_word(1 << 30, 8), SimError);
}

TEST(SharedHeap, SubWordAccess) {
  SharedHeap h(64);
  Addr a = h.allocate(8, 8);
  h.write_word(a, 0x1122334455667788ULL, 8);
  EXPECT_EQ(h.read_word(a, 1), 0x88u);
  EXPECT_EQ(h.read_word(a + 4, 4), 0x11223344u);
}

TEST(Memory, LoadStoreRoundTrip) {
  Machine m(quantum0());
  auto cell = Shared<std::uint64_t>::alloc(m, 7);
  m.run({.threads = 1, .body = [&](Context& c) {
    EXPECT_EQ(cell.load(c), 7u);
    cell.store(c, 42);
    EXPECT_EQ(cell.load(c), 42u);
  }});
  EXPECT_EQ(cell.peek(m), 42u);
}

TEST(Memory, AlignmentEnforced) {
  Machine m(quantum0());
  Addr a = m.alloc(64);
  m.run({.threads = 1, .body = [&](Context& c) {
    EXPECT_THROW(c.load(a + 1, 8), SimError);
    EXPECT_THROW(c.load(a + 2, 4), SimError);
    EXPECT_THROW(c.load(a, 3), SimError);
    EXPECT_NO_THROW(c.load(a + 4, 4));
  }});
}

TEST(Memory, L1HitIsCheaperThanMiss) {
  Machine m(quantum0());
  Addr a = m.alloc(64);
  Cycles first = 0, second = 0;
  m.run({.threads = 1, .body = [&](Context& c) {
    Cycles t0 = c.now();
    c.load(a);
    first = c.now() - t0;
    t0 = c.now();
    c.load(a);
    second = c.now() - t0;
  }});
  EXPECT_EQ(first, m.config().lat_mem);
  EXPECT_EQ(second, m.config().lat_l1_hit);
}

TEST(Memory, CrossCoreDirtyTransferCost) {
  Machine m(quantum0());
  auto cell = Shared<std::uint64_t>::alloc(m, 0);
  auto flag = Shared<std::uint32_t>::alloc(m, 0);
  std::vector<Cycles> load_cost(2, 0);
  m.run({.bodies = {
      [&](Context& c) {
        cell.store(c, 5);  // dirty in core 0's L1
        flag.store(c, 1);
      },
      [&](Context& c) {
        while (flag.load(c) == 0) c.compute(50);
        Cycles t0 = c.now();
        cell.load(c);
        load_cost[1] = c.now() - t0;
      },
  }});
  EXPECT_EQ(load_cost[1], m.config().lat_xfer_dirty);
}

TEST(Memory, AtomicFetchAddIsAtomicAcrossThreads) {
  Machine m;  // default quantum: coarse interleaving still must be atomic
  auto counter = Shared<std::uint64_t>::alloc(m, 0);
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  m.run({.threads = kThreads, .body = [&](Context& c) {
    for (int i = 0; i < kIters; ++i) counter.fetch_add(c, 1);
  }});
  EXPECT_EQ(counter.peek(m), static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Memory, AtomicCostsMoreThanPlainAccess) {
  Machine m(quantum0());
  Addr a = m.alloc(64);
  Cycles plain = 0, atomic = 0;
  m.run({.threads = 1, .body = [&](Context& c) {
    c.load(a);  // warm
    Cycles t0 = c.now();
    c.store(a, 1);
    plain = c.now() - t0;
    t0 = c.now();
    c.fetch_add(a, 1);
    atomic = c.now() - t0;
  }});
  EXPECT_GT(atomic, plain);
}

TEST(Tx, CommitPublishesWrites) {
  Machine m(quantum0());
  auto cell = Shared<std::uint64_t>::alloc(m, 1);
  m.run({.threads = 1, .body = [&](Context& c) {
    c.xbegin();
    cell.store(c, 99);
    EXPECT_EQ(cell.load(c), 99u);       // read own speculative write
    EXPECT_EQ(cell.peek(m), 1u);
    c.xend();
    EXPECT_EQ(cell.load(c), 99u);
  }});
  EXPECT_EQ(cell.peek(m), 99u);
}

TEST(Tx, ExplicitAbortDiscardsWrites) {
  Machine m(quantum0());
  auto cell = Shared<std::uint64_t>::alloc(m, 1);
  RunStats rs = m.run({.threads = 1, .body = [&](Context& c) {
    try {
      c.xbegin();
      cell.store(c, 99);
      c.xabort(0x42);
      FAIL() << "xabort must not return";
    } catch (const TxAbort& a) {
      EXPECT_EQ(a.cause, AbortCause::kExplicit);
      EXPECT_EQ(a.code, 0x42);
    }
    EXPECT_FALSE(c.in_txn());
    EXPECT_EQ(cell.load(c), 1u);
  }});
  EXPECT_EQ(rs.threads[0].tx_aborted[size_t(AbortCause::kExplicit)], 1u);
}

TEST(Tx, SubWordWritesMergeInBuffer) {
  Machine m(quantum0());
  Addr a = m.alloc(8);
  m.heap().write_word(a, 0, 8);
  m.run({.threads = 1, .body = [&](Context& c) {
    c.xbegin();
    c.store(a, 0xAA, 1);
    c.store(a + 4, 0xBBCCDDEE, 4);
    EXPECT_EQ(c.load(a, 1), 0xAAu);
    EXPECT_EQ(c.load(a + 4, 4), 0xBBCCDDEEu);
    EXPECT_EQ(c.load(a, 8), 0xBBCCDDEE000000AAULL);
    c.xend();
  }});
  EXPECT_EQ(m.heap().read_word(a, 8), 0xBBCCDDEE000000AAULL);
}

TEST(Tx, SyscallAbortsTransaction) {
  Machine m(quantum0());
  auto cell = Shared<std::uint64_t>::alloc(m, 0);
  RunStats rs = m.run({.threads = 1, .body = [&](Context& c) {
    try {
      c.xbegin();
      cell.store(c, 5);
      c.syscall();
      FAIL() << "syscall inside txn must abort";
    } catch (const TxAbort& a) {
      EXPECT_EQ(a.cause, AbortCause::kSyscall);
    }
  }});
  EXPECT_EQ(cell.peek(m), 0u);
  EXPECT_EQ(rs.threads[0].tx_aborted[size_t(AbortCause::kSyscall)], 1u);
}

TEST(Tx, NestingIsFlatAndDepthLimited) {
  Machine m(quantum0());
  auto cell = Shared<std::uint64_t>::alloc(m, 0);
  m.run({.threads = 1, .body = [&](Context& c) {
    c.xbegin();
    c.xbegin();  // nested
    cell.store(c, 1);
    c.xend();
    EXPECT_TRUE(c.in_txn());  // flat: still transactional
    EXPECT_EQ(cell.peek(m), 0u);
    c.xend();
    EXPECT_FALSE(c.in_txn());
  }});
  EXPECT_EQ(cell.peek(m), 1u);

  // Depth overflow.
  m.run({.threads = 1, .body = [&](Context& c) {
    bool aborted = false;
    try {
      for (int i = 0; i < 64; ++i) c.xbegin();
    } catch (const TxAbort& a) {
      aborted = true;
      EXPECT_EQ(a.cause, AbortCause::kNesting);
    }
    EXPECT_TRUE(aborted);
    EXPECT_FALSE(c.in_txn());
  }});
}

TEST(Tx, WriteWriteConflictRequesterWins) {
  Machine m(quantum0());
  auto cell = Shared<std::uint64_t>::alloc(m, 0);
  auto ready = Shared<std::uint32_t>::alloc(m, 0);
  int victim_aborts = 0;
  m.run({.bodies = {
      // Thread 0: opens a txn, writes the cell, then spins. Thread 1's
      // conflicting write must doom it (requester wins).
      [&](Context& c) {
        try {
          c.xbegin();
          cell.store(c, 10);
          ready.store(c, 1);  // NOTE: speculative; not visible to thread 1!
          for (int i = 0; i < 200; ++i) c.compute(100);
          c.xend();
        } catch (const TxAbort& a) {
          victim_aborts++;
          EXPECT_EQ(a.cause, AbortCause::kConflict);
        }
      },
      [&](Context& c) {
        c.compute(2000);  // let thread 0 enter its txn
        cell.store(c, 20);
      },
  }});
  EXPECT_EQ(victim_aborts, 1);
  EXPECT_EQ(cell.peek(m), 20u);
}

TEST(Tx, ReadersDoomedByRemoteWrite) {
  Machine m(quantum0());
  auto cell = Shared<std::uint64_t>::alloc(m, 0);
  int aborts = 0;
  m.run({.bodies = {
      [&](Context& c) {
        try {
          c.xbegin();
          (void)cell.load(c);
          for (int i = 0; i < 200; ++i) c.compute(100);
          c.xend();
        } catch (const TxAbort&) {
          aborts++;
        }
      },
      [&](Context& c) {
        c.compute(2000);
        cell.store(c, 1);  // non-transactional write dooms the reader
      },
  }});
  EXPECT_EQ(aborts, 1);
}

TEST(Tx, ConcurrentReadersDoNotConflict) {
  Machine m(quantum0());
  auto cell = Shared<std::uint64_t>::alloc(m, 7);
  RunStats rs = m.run({.threads = 4, .body = [&](Context& c) {
    c.xbegin();
    EXPECT_EQ(cell.load(c), 7u);
    c.compute(500);
    c.xend();
  }});
  EXPECT_EQ(rs.total().tx_committed, 4u);
  EXPECT_EQ(rs.total().tx_aborts_total(), 0u);
}

TEST(Tx, CapacityAbortOnWriteSetOverflow) {
  // Write more lines into one L1 set than it has ways.
  Machine m(quantum0());
  const auto& cfg = m.config();
  const std::size_t set_stride =
      static_cast<std::size_t>(cfg.l1_sets()) * cfg.line_bytes;
  Addr base = m.alloc(set_stride * (cfg.l1_ways + 2), 64);
  RunStats rs = m.run({.threads = 1, .body = [&](Context& c) {
    bool aborted = false;
    try {
      c.xbegin();
      for (std::uint32_t i = 0; i < cfg.l1_ways + 2; ++i) {
        c.store(base + i * set_stride, i);
      }
      c.xend();
    } catch (const TxAbort& a) {
      aborted = true;
      EXPECT_EQ(a.cause, AbortCause::kCapacityWrite);
    }
    EXPECT_TRUE(aborted);
  }});
  EXPECT_EQ(rs.threads[0].tx_aborted[size_t(AbortCause::kCapacityWrite)], 1u);
}

TEST(Tx, ReadSetEvictionDoesNotAbort) {
  // Reads overflowing the L1 go to secondary tracking, not (deterministic)
  // abort (Sec. 2). Disable the probabilistic secondary-imprecision model.
  MachineConfig mc = quantum0();
  mc.read_evict_abort_prob = 0.0;
  Machine m(mc);
  const auto& cfg = m.config();
  const std::size_t set_stride =
      static_cast<std::size_t>(cfg.l1_sets()) * cfg.line_bytes;
  Addr base = m.alloc(set_stride * (cfg.l1_ways + 4), 64);
  RunStats rs = m.run({.threads = 1, .body = [&](Context& c) {
    c.xbegin();
    for (std::uint32_t i = 0; i < cfg.l1_ways + 4; ++i) {
      c.load(base + i * set_stride);
    }
    c.xend();
  }});
  EXPECT_EQ(rs.threads[0].tx_committed, 1u);
  EXPECT_GT(rs.threads[0].tx_read_lines_evicted, 0u);
}

TEST(Tx, EvictedReadLineStillDetectsConflicts) {
  // A line evicted from the L1 but still in the (secondary) read set must
  // still cause an abort when another thread writes it.
  MachineConfig mc = quantum0();
  mc.read_evict_abort_prob = 0.0;
  Machine m(mc);
  const auto& cfg = m.config();
  const std::size_t set_stride =
      static_cast<std::size_t>(cfg.l1_sets()) * cfg.line_bytes;
  Addr probe = m.alloc(64, 64);
  // Aliases: same set as probe.
  Addr alias = m.alloc(set_stride * (cfg.l1_ways + 2), 64);
  // Adjust alias to land in the same set as probe.
  alias += (probe % set_stride) - (alias % set_stride);
  int aborts = 0;
  m.run({.bodies = {
      [&](Context& c) {
        try {
          c.xbegin();
          c.load(probe);
          // Evict probe from the L1 with same-set fills.
          for (std::uint32_t i = 0; i < cfg.l1_ways + 1; ++i) {
            c.load(alias + i * set_stride);
          }
          for (int i = 0; i < 300; ++i) c.compute(100);
          c.xend();
        } catch (const TxAbort& a) {
          aborts++;
          EXPECT_EQ(a.cause, AbortCause::kConflict);
        }
      },
      [&](Context& c) {
        c.compute(8000);
        c.store(probe, 1);
      },
  }});
  EXPECT_EQ(aborts, 1);
}

// A reader whose line leaves the LLC keeps it in its read set (the overflow
// tracker), and a remote store must still doom it. With `refill`, a remote
// load first brings the line back into the LLC, which must carry the
// reader's mask with it.
void llc_evicted_read_line_still_conflicts(bool refill) {
  MachineConfig mc = quantum0();
  mc.read_evict_abort_prob = 0.0;  // the reader survives the eviction
  Machine m(mc);
  const auto& cfg = m.config();
  // L1 and LLC have the same set count, so one stride aliases both.
  const std::size_t set_stride =
      static_cast<std::size_t>(cfg.llc_sets()) * cfg.line_bytes;
  Addr probe = m.alloc(64, 64);
  Addr alias = m.alloc(set_stride * (cfg.llc_ways + 3), 64);
  alias += (probe % set_stride) - (alias % set_stride);
  const Addr probe_line = cfg.line_of(probe);
  int aborts = 0;
  m.run({.bodies = {
      [&](Context& c) {
        try {
          c.xbegin();
          c.load(probe);
          for (std::uint32_t i = 0; i < cfg.llc_ways + 2; ++i) {
            c.load(alias + i * set_stride);
          }
          EXPECT_FALSE(m.mem().llc().contains(probe_line));
          for (int i = 0; i < 300; ++i) c.compute(100);
          c.xend();
        } catch (const TxAbort& a) {
          aborts++;
          EXPECT_EQ(a.cause, AbortCause::kConflict);
        }
      },
      [&](Context& c) {
        c.compute(8000);
        if (refill) {
          c.load(probe);  // read/read: no conflict, but refills the LLC
          EXPECT_TRUE(m.mem().llc().contains(probe_line));
        }
        c.store(probe, 1);
      },
  }});
  EXPECT_EQ(aborts, 1);
  EXPECT_EQ(m.mem().tx_registry_entries(), 0u);
}

TEST(Tx, LlcEvictedReadLineStillDetectsConflicts) {
  llc_evicted_read_line_still_conflicts(/*refill=*/false);
}

TEST(Tx, RefilledReadLineKeepsItsReaders) {
  llc_evicted_read_line_still_conflicts(/*refill=*/true);
}

TEST(Tx, SiblingAbortKeepsTheNewWritersLine) {
  // Threads 0 and 4 share core 0's L1. Thread 4's transactional store dooms
  // thread 0, which wrote the same line first; thread 0's rollback must
  // drop only its own L1 marks, not the line thread 4 now owns.
  Machine m(quantum0());
  auto cell = Shared<std::uint64_t>::alloc(m, 0);
  const Addr line = m.config().line_of(cell.addr());
  std::vector<std::function<void(Context&)>> bodies(8, [](Context& c) {
    c.compute(1);
  });
  bodies[0] = [&](Context& c) {
    try {
      c.xbegin();
      cell.store(c, 10);
      for (int i = 0; i < 200; ++i) c.compute(100);
      c.xend();
    } catch (const TxAbort& a) {
      EXPECT_EQ(a.cause, AbortCause::kConflict);
    }
  };
  bodies[4] = [&](Context& c) {
    c.compute(2000);
    c.xbegin();
    cell.store(c, 20);
    for (int i = 0; i < 10; ++i) c.compute(100);  // thread 0 rolls back
    EXPECT_TRUE(m.mem().l1_of_core(0).contains(line));
    c.xend();
  };
  RunStats rs = m.run({.bodies = bodies});
  EXPECT_EQ(rs.threads[0].tx_aborted[size_t(AbortCause::kConflict)], 1u);
  EXPECT_EQ(rs.threads[4].tx_committed, 1u);
  EXPECT_EQ(cell.peek(m), 20u);
}

TEST(Tx, SmtSiblingPressureCausesCapacityAborts) {
  // Two threads on the same core (tids 0 and 4 with 4 cores) hammering
  // disjoint data halve each other's effective L1 capacity.
  MachineConfig cfg = quantum0();
  Machine m(cfg);
  const std::size_t set_stride =
      static_cast<std::size_t>(cfg.l1_sets()) * cfg.line_bytes;
  // Two disjoint regions mapping to the same sets.
  Addr r0 = m.alloc(set_stride * cfg.l1_ways, 64);
  Addr r1 = m.alloc(set_stride * cfg.l1_ways, 64);
  int capacity_aborts = 0;
  auto body = [&](Context& c) {
    Addr base = c.tid() == 0 ? r0 : r1;
    // 5 same-set lines each: alone would fit (8 ways); together they thrash.
    for (int rep = 0; rep < 6; ++rep) {
      try {
        c.xbegin();
        for (std::uint32_t i = 0; i < 5; ++i) {
          c.store(base + i * set_stride, rep);
        }
        c.compute(300);
        c.xend();
      } catch (const TxAbort& a) {
        if (a.cause == AbortCause::kCapacityWrite) capacity_aborts++;
      }
    }
  };
  std::vector<std::function<void(Context&)>> bodies(8, [](Context& c) {
    c.compute(1);
  });
  bodies[0] = body;
  bodies[4] = body;  // same core as thread 0 (t % 4)
  m.run({.bodies = bodies});
  EXPECT_GT(capacity_aborts, 0);
}

}  // namespace
}  // namespace tsxhpc::sim

namespace tsxhpc::sim {
namespace {

TEST(Affinity, PackedSiblingsShareAnL1) {
  MachineConfig cfg;
  cfg.affinity = Affinity::kPackCores;
  EXPECT_EQ(cfg.core_of(0), cfg.core_of(1));
  EXPECT_NE(cfg.core_of(0), cfg.core_of(2));
  MachineConfig spread;  // the paper's default
  EXPECT_NE(spread.core_of(0), spread.core_of(1));
  EXPECT_EQ(spread.core_of(0), spread.core_of(4));
}

TEST(Affinity, PackingRaisesTransactionalCapacityPressure) {
  // The Section 3 affinity choice matters: two threads with medium write
  // sets abort more when packed onto one L1 than when spread (the same
  // mechanism as Table 1's 8-thread column, at 2 threads).
  auto capacity_aborts = [](Affinity a) {
    MachineConfig cfg;
    cfg.sched_quantum = 0;
    cfg.affinity = a;
    Machine m(cfg);
    const std::size_t stride = cfg.l1_sets() * cfg.line_bytes;
    Addr r0 = m.alloc(stride * cfg.l1_ways, 64);
    Addr r1 = m.alloc(stride * cfg.l1_ways, 64);
    std::uint64_t aborts = 0;
    RunStats rs = m.run({.threads = 2, .body = [&](Context& c) {
      const Addr base = c.tid() == 0 ? r0 : r1;
      for (int rep = 0; rep < 8; ++rep) {
        try {
          c.xbegin();
          for (std::uint32_t i = 0; i < 5; ++i) {
            c.store(base + i * stride, rep);
          }
          c.compute(400);
          c.xend();
        } catch (const TxAbort&) {
        }
      }
    }});
    aborts = rs.total().tx_aborts_total();
    return aborts;
  };
  EXPECT_GT(capacity_aborts(Affinity::kPackCores),
            capacity_aborts(Affinity::kSpreadCores));
}

}  // namespace
}  // namespace tsxhpc::sim
