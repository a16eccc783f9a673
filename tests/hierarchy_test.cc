// Capacity-abort provenance under the layered cache hierarchy. These tests
// pin the level each abort mechanism keys off: write-set capacity is an L1
// property (eviction of a transactionally written line dooms immediately,
// with the evicted line recorded as the doom line), while read-set capacity
// is an LLC property (losing the L1 copy is harmless as long as the LLC
// still backs the secondary tracker; losing the LLC copy risks the abort).
// Set-targeted strides make every eviction deterministic, so the scenarios
// hold exactly rather than statistically.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/invariants.h"
#include "sim/machine.h"
#include "sim/shared.h"
#include "sim/telemetry.h"

namespace tsxhpc::sim {
namespace {

// Default geometry: L1 32 KB / 8-way and LLC 40 KB / 10-way are both
// 64-set, so lines a multiple of (64 * line_bytes) apart collide in the
// same set at *both* levels — touching k such lines occupies one L1 set
// (8 ways) and one LLC set (10 ways).
constexpr std::size_t kSetStrideLines = 64;

struct SetProbe {
  MachineConfig cfg;
  Machine m;
  Addr base;
  TxAbort abort;  // last abort observed by run()
  bool aborted = false;

  explicit SetProbe(const MachineConfig& c) : cfg(c), m(cfg) {
    base = m.alloc(32 * kSetStrideLines * cfg.line_bytes, 64);
  }

  Addr line_addr(std::size_t i) const {
    return base + i * kSetStrideLines * cfg.line_bytes;
  }

  // One transaction touching `lines` same-set lines; true = committed.
  bool run(std::size_t lines, bool writes) {
    aborted = false;
    m.run({.threads = 1, .body = [&](Context& c) {
      try {
        c.xbegin();
        for (std::size_t i = 0; i < lines; ++i) {
          if (writes) {
            c.store(line_addr(i), i + 1);
          } else {
            (void)c.load(line_addr(i));
          }
        }
        c.xend();
      } catch (const TxAbort& a) {
        abort = a;
        aborted = true;
      }
    }});
    return !aborted;
  }
};

TEST(Hierarchy, WriteSetEvictionAbortsWithDoomLine) {
  // 9 same-set writes overflow the 8-way L1 set; the 9th evicts the LRU
  // (first-written) line and dooms the transaction at that instant. The
  // 9 lines fit the 10-way LLC set, proving the doom came from the L1.
  Telemetry tel;
  MachineConfig cfg;
  cfg.telemetry = &tel;
  SetProbe p(cfg);
  EXPECT_FALSE(p.run(9, /*writes=*/true));
  EXPECT_EQ(p.abort.cause, AbortCause::kCapacityWrite);

  const ThreadStats t = tel.runs().at(0).stats.threads.at(0);
  EXPECT_EQ(t.tx_aborted[static_cast<size_t>(AbortCause::kCapacityWrite)], 1u);
  EXPECT_EQ(t.tx_aborted[static_cast<size_t>(AbortCause::kCapacityRead)], 0u);

  // Provenance names the evicted line, not the line whose fill evicted it.
  const auto& cap = tel.runs().at(0).capacity_lines;
  ASSERT_EQ(cap.count(p.line_addr(0)), 1u);
  EXPECT_EQ(cap.at(p.line_addr(0)).write_evict_dooms, 1u);
  EXPECT_EQ(cap.at(p.line_addr(0)).read_evict_dooms, 0u);
}

TEST(Hierarchy, ReadEvictedFromL1ButLlcResidentDoesNotAbort) {
  // The same 9-line footprint as reads: the L1 set overflows (secondary
  // tracking engages, tx_read_lines_evicted counts it) but all 9 lines stay
  // LLC-resident, so even probability 1.0 cannot abort — the tracker is
  // backed by the LLC, not the L1.
  Telemetry tel;
  MachineConfig cfg;
  cfg.telemetry = &tel;
  cfg.read_evict_abort_prob = 1.0;
  SetProbe p(cfg);
  EXPECT_TRUE(p.run(9, /*writes=*/false));

  const ThreadStats t = tel.runs().at(0).stats.threads.at(0);
  EXPECT_EQ(t.tx_committed, 1u);
  EXPECT_EQ(t.tx_aborts_total(), 0u);
  EXPECT_GE(t.tx_read_lines_evicted, 1u);
}

TEST(Hierarchy, ReadEvictedFromLlcAbortsDeterministically) {
  // 11 same-set reads overflow the 10-way LLC set: the 11th fill evicts the
  // LRU line, which is still in the transaction's read set — with
  // probability 1.0 the doom is certain and lands on that exact line.
  Telemetry tel;
  MachineConfig cfg;
  cfg.telemetry = &tel;
  cfg.read_evict_abort_prob = 1.0;
  SetProbe p(cfg);
  EXPECT_FALSE(p.run(11, /*writes=*/false));
  EXPECT_EQ(p.abort.cause, AbortCause::kCapacityRead);

  const ThreadStats t = tel.runs().at(0).stats.threads.at(0);
  EXPECT_EQ(t.tx_aborted[static_cast<size_t>(AbortCause::kCapacityRead)], 1u);
  EXPECT_GE(t.llc_evictions, 1u);

  const auto& cap = tel.runs().at(0).capacity_lines;
  ASSERT_EQ(cap.count(p.line_addr(0)), 1u);
  EXPECT_EQ(cap.at(p.line_addr(0)).read_evict_dooms, 1u);
  EXPECT_EQ(cap.at(p.line_addr(0)).write_evict_dooms, 0u);
}

TEST(Hierarchy, LlcCapacityAbortIsDeterministicAcrossRuns) {
  auto once = [] {
    MachineConfig cfg;
    cfg.read_evict_abort_prob = 0.3;
    SetProbe p(cfg);
    int commits = 0;
    for (int i = 0; i < 10; ++i) commits += p.run(12, /*writes=*/false);
    return commits;
  };
  EXPECT_EQ(once(), once());
}

TEST(Hierarchy, CycleBucketsSumToEndCycleWithPerLevelStalls) {
  // A footprint larger than the LLC exercises every level (L1 hit, LLC hit,
  // DRAM) plus cross-core transfers. Without locks or fallbacks, both
  // accounting invariants hold exactly: the buckets partition end_cycle,
  // and the per-level stall attribution partitions the kMemStall bucket.
  Telemetry tel;
  MachineConfig cfg;
  cfg.telemetry = &tel;
  cfg.llc_bytes = 256 * 1024;  // 4096 lines: holds the spans, the L1 doesn't
  cfg.llc_ways = 16;
  Machine m(cfg);
  const std::size_t span_lines = 768;  // per-thread private span, 1.5x the L1
  Addr base = m.alloc(4 * span_lines * cfg.line_bytes, 64);
  RunStats rs = m.run({.threads = 4, .body = [&](Context& c) {
    const Addr mine = base + c.tid() * span_lines * cfg.line_bytes;
    // Pass 1: cold — every line is a DRAM miss. Pass 2: the span no longer
    // fits the L1 but sits whole in the LLC — every first touch is an LLC
    // hit; the immediate re-touch of each line is an L1 hit.
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < span_lines; ++i) {
        const Addr a = mine + i * cfg.line_bytes;
        if (i % 3 == 0) {
          c.store(a, i);
        } else {
          (void)c.load(a);
        }
        (void)c.load(a);
        c.compute(2);
      }
    }
  }});

  // The cycle and hierarchy rules of sim/invariants.h, on every thread.
  EXPECT_EQ(to_string(check_invariants(tel)), "");
  for (const ThreadStats& t : rs.threads) {
    // Every level actually served accesses in this workload.
    EXPECT_GT(t.l1_hits, 0u);
    EXPECT_GT(t.llc_hits, 0u);
    EXPECT_GT(t.llc_misses, 0u);
  }
}

TEST(Hierarchy, DirectoryIsBoundedByLlcCapacity) {
  // The directory lives in LLC entries, so streaming over a working set far
  // larger than the LLC cannot grow it past the LLC's line capacity — the
  // unbounded map of the flat model is gone.
  MachineConfig cfg;
  Machine m(cfg);
  const std::size_t span_lines = 16 * 1024;  // 1 MB, ~25x the LLC
  Addr base = m.alloc(span_lines * cfg.line_bytes, 64);
  m.run({.threads = 2, .body = [&](Context& c) {
    for (std::size_t i = 0; i < span_lines; ++i) {
      c.store(base + i * cfg.line_bytes, c.tid());
    }
  }});
  EXPECT_LE(m.mem().directory_entries(), m.mem().llc().capacity_lines());
  EXPECT_GT(m.mem().directory_entries(), 0u);
}

// 2-socket / 4-slice / 8-core machine used by the topology tests below:
// every map policy places threads distinctly, both hop kinds get charged,
// and the whole thing still fits the 64-entry mask width.
MachineConfig topo_cfg() {
  MachineConfig cfg;
  cfg.num_cores = 8;
  cfg.smt_per_core = 1;
  cfg.topology.num_sockets = 2;
  cfg.topology.llc_slices = 4;
  return cfg;
}

/// Cross-socket sharing workload: every thread transactionally bumps
/// counters spread over enough lines to hash onto every slice.
RunStats topo_run(const MachineConfig& cfg, int threads = 8) {
  Machine m(cfg);
  const Addr base = m.alloc({.name = "grid", .bytes = 256 * 64});
  return m.run({.threads = threads, .body = [&](Context& c) {
    for (int i = 0; i < 30; ++i) {
      try {
        c.xbegin();
        for (int k = 0; k < 6; ++k) {
          const Addr a = base + ((c.tid() * 37 + i * 11 + k) % 256) * 64;
          c.store(a, c.load(a) + 1);
        }
        c.xend();
      } catch (const TxAbort&) {
      }
    }
  }, .label = "topo"});
}

TEST(Topology, SliceHashIsStableAndIdentityAtOne) {
  // The hash is part of the artifact contract: telemetry baselines and the
  // color strategy's layouts both bake it in, so its values are goldens.
  for (Addr line : {Addr{0}, Addr{1}, Addr{64}, Addr{12345}, Addr{1} << 40}) {
    EXPECT_EQ(llc_slice_of_line(line, 1), 0) << line;
  }
  EXPECT_EQ(llc_slice_of_line(0, 4), 0);
  EXPECT_EQ(llc_slice_of_line(1, 4), 1);
  EXPECT_EQ(llc_slice_of_line(2, 4), 2);
  EXPECT_EQ(llc_slice_of_line(3, 4), 3);
  EXPECT_EQ(llc_slice_of_line(4, 4), 3);
  EXPECT_EQ(llc_slice_of_line(12345, 8), 2);
  // Every slice is reachable (the hash spreads consecutive lines).
  for (int slices : {2, 4, 8}) {
    std::vector<int> seen(slices, 0);
    for (Addr line = 0; line < 64; ++line) {
      seen[llc_slice_of_line(line, slices)]++;
    }
    for (int s = 0; s < slices; ++s) EXPECT_GT(seen[s], 0) << slices;
  }
}

TEST(Topology, HopCyclesReconcileExactly) {
  // The per-thread hop counters decompose the hop surcharge bit-for-bit:
  // hop_cycles == slice_hops * lat_hop_slice + socket_hops * lat_hop_socket
  // (a topology rule of sim/invariants.h), with both hop kinds charged.
  Telemetry tel;
  MachineConfig cfg = topo_cfg();
  cfg.telemetry = &tel;
  const ThreadStats tot = topo_run(cfg).total();
  EXPECT_GT(tot.slice_hops, 0u);
  EXPECT_GT(tot.socket_hops, 0u);
  EXPECT_EQ(to_string(check_invariants(tel)), "");
}

TEST(Topology, DefaultTopologyChargesNoHops) {
  // 1 socket / 1 slice is the historic machine: no interconnect exists, so
  // no hop may ever be charged (the committed baselines depend on this).
  const ThreadStats tot = topo_run(MachineConfig{}, 4).total();
  EXPECT_EQ(tot.slice_hops, 0u);
  EXPECT_EQ(tot.socket_hops, 0u);
  EXPECT_EQ(tot.hop_cycles, 0u);
}

TEST(Topology, MapPoliciesDegenerateToHistoricPlacementAtOneSocket) {
  MachineConfig cfg;  // default: 1 socket, 4 cores x 2 SMT
  for (MapPolicy map : {MapPolicy::kCompact, MapPolicy::kScatter,
                        MapPolicy::kSharingAware}) {
    cfg.topology.map = map;
    for (ThreadId t = 0; t < cfg.num_hw_threads(); ++t) {
      // kSpreadCores historic formula: thread t lands on core t % num_cores.
      EXPECT_EQ(cfg.core_of(t), t % cfg.num_cores) << to_string(map);
    }
  }
}

TEST(Topology, FiberAndThreadBackendsAreByteIdenticalOnSlicedMachine) {
  // Topology counters and hop charging must not leak host scheduling: the
  // same 2-socket/4-slice run under both backends produces byte-identical
  // telemetry apart from the run's own backend name tag.
  Telemetry fiber_tel, thread_tel;
  MachineConfig cfg = topo_cfg();
  cfg.set_stats = true;
  cfg.backend = BackendKind::kFiber;
  cfg.telemetry = &fiber_tel;
  topo_run(cfg);
  cfg.backend = BackendKind::kThread;
  cfg.telemetry = &thread_tel;
  topo_run(cfg);
  std::string fiber_json = fiber_tel.json("topology_test");
  const std::string thread_json = thread_tel.json("topology_test");
  const std::string from = "\"backend\":\"fiber\"";
  const std::size_t at = fiber_json.find(from);
  ASSERT_NE(at, std::string::npos);
  fiber_json.replace(at, from.size(), "\"backend\":\"thread\"");
  EXPECT_EQ(fiber_json, thread_json);
}

TEST(Hierarchy, TxRegistryDrainsAfterCommitsAndAborts) {
  // Transactional line masks are transient: committed and aborted
  // transactions both clear them, in the LLC entries and in the overflow
  // map, so they are bounded by live footprints, not run length.
  MachineConfig cfg;
  cfg.read_evict_abort_prob = 1.0;
  SetProbe p(cfg);
  EXPECT_TRUE(p.run(6, /*writes=*/true));    // commits
  EXPECT_FALSE(p.run(11, /*writes=*/false)); // aborts (LLC overflow)
  EXPECT_EQ(p.m.mem().tx_registry_entries(), 0u);
}

// The slot link: an L1 entry records the LLC slot its line was filled
// into. The tests below move a line to a different LLC slot behind a
// parked transaction's back. Thread 0 (core 0) reads or writes line 0 of
// one set and then computes; thread 1 (core 1) streams ten more lines of
// the same set through the 10-way LLC, which evicts line 0 and
// back-invalidates core 0's copy, and reloads line 0, which now lands in
// the way of line 1 while line 10 holds line 0's old slot.
constexpr Cycles kParkCycles = 100000;

struct SlotMove {
  MachineConfig cfg;
  Machine m;
  Addr base;
  explicit SlotMove(const MachineConfig& c) : cfg(c), m(cfg) {
    base = m.alloc(32 * kSetStrideLines * cfg.line_bytes, 64);
  }
  Addr line_addr(std::size_t i) const {
    return base + i * kSetStrideLines * cfg.line_bytes;
  }
  Addr line(std::size_t i) const { return line_addr(i) / cfg.line_bytes; }
  /// LLC slot holding `line` right now (a copy: find() is not const).
  std::uint32_t llc_slot(Addr line) {
    CacheLevel llc = m.mem().llc();
    CacheLevel::Entry* e = llc.find(line);
    return e != nullptr ? llc.slot_of(*e) : ~0u;
  }
  /// Thread 1's part: evict line 0 from the LLC, then reload it.
  void move_line0(Context& c) {
    c.compute(1000);  // after thread 0's first access
    for (std::size_t i = 1; i <= 10; ++i) (void)c.load(line_addr(i));
    (void)c.load(line_addr(0));
  }
};

TEST(SlotLink, RefillIntoAnotherWayIsServedAsAnL1Miss) {
  MachineConfig cfg;
  cfg.read_evict_abort_prob = 0.0;
  SlotMove p(cfg);
  std::uint32_t old_slot = 0;
  bool committed = false;
  const RunStats rs = p.m.run({.threads = 2, .body = [&](Context& c) {
    if (c.tid() == 1) {
      p.move_line0(c);
      return;
    }
    c.xbegin();
    (void)c.load(p.line_addr(0));
    old_slot = p.llc_slot(p.line(0));
    c.compute(kParkCycles);
    (void)c.load(p.line_addr(0));  // core 0's copy is gone: an L1 miss
    c.xend();
    committed = true;
  }});
  EXPECT_TRUE(committed);
  EXPECT_NE(p.llc_slot(p.line(0)), old_slot);
  EXPECT_EQ(p.llc_slot(p.line(10)), old_slot);

  const ThreadStats& t0 = rs.threads.at(0);
  EXPECT_EQ(t0.mem_accesses, 2u);
  EXPECT_EQ(t0.l1_hits, 0u);
  EXPECT_EQ(t0.l1_misses, 2u);
  EXPECT_EQ(t0.llc_misses, 1u);  // the first load; the reload is a transfer
  EXPECT_EQ(t0.xfers_in, 1u);
  // Line 0 left the LLC while core 0 held it in the transaction's read set.
  EXPECT_EQ(t0.tx_read_lines_evicted, 1u);
  const ThreadStats& t1 = rs.threads.at(1);
  EXPECT_EQ(t1.mem_accesses, 11u);
  EXPECT_EQ(t1.l1_hits + t1.l1_misses, t1.mem_accesses);
  EXPECT_EQ(t1.llc_misses, 11u);
  EXPECT_EQ(t1.llc_evictions, 2u);  // line 0, then line 1
  EXPECT_EQ(p.m.mem().tx_registry_entries(), 0u);
}

TEST(SlotLink, RegistryDrainsAfterWrittenLineMovesSlot) {
  MachineConfig cfg;
  cfg.read_evict_abort_prob = 0.0;
  SlotMove p(cfg);
  // Commit: the read line moves slot under the transaction, whose own
  // written line (another set) stays put.
  bool committed = false;
  p.m.run({.threads = 2, .body = [&](Context& c) {
    if (c.tid() == 1) {
      p.move_line0(c);
      return;
    }
    c.xbegin();
    (void)c.load(p.line_addr(0));
    c.store(p.line_addr(0) + cfg.line_bytes, 1);
    c.compute(kParkCycles);
    c.xend();
    committed = true;
  }});
  EXPECT_TRUE(committed);
  EXPECT_EQ(p.m.mem().tx_registry_entries(), 0u);

  // Abort: the written line is evicted (a capacity doom) and refilled into
  // another slot before the writer rolls back.
  TxAbort abort;
  bool aborted = false;
  p.m.run({.threads = 2, .body = [&](Context& c) {
    if (c.tid() == 1) {
      p.move_line0(c);
      return;
    }
    try {
      c.xbegin();
      c.store(p.line_addr(0), 2);
      c.compute(kParkCycles);
      c.xend();
    } catch (const TxAbort& a) {
      abort = a;
      aborted = true;
    }
  }});
  ASSERT_TRUE(aborted);
  EXPECT_EQ(abort.cause, AbortCause::kCapacityWrite);
  EXPECT_FALSE(p.m.mem().l1_of_core(0).contains(p.line(0)));
  EXPECT_EQ(p.m.mem().tx_registry_entries(), 0u);
}

TEST(Hierarchy, LineSizeMustBeAPowerOfTwo) {
  // 48-byte lines with geometries whose set counts are powers of two: only
  // the line size itself is wrong, and line addresses are a shift of it.
  MachineConfig cfg;
  cfg.line_bytes = 48;
  cfg.l1_bytes = 48 * 8 * 64;
  cfg.llc_bytes = 48 * 10 * 64;
  std::vector<ThreadStats> stats(cfg.num_hw_threads());
  EXPECT_THROW(MemorySystem(cfg, stats), SimError);
  EXPECT_THROW(Machine{cfg}, ConfigError);
  cfg.line_bytes = 128;
  cfg.l1_bytes = 128 * 8 * 64;
  cfg.llc_bytes = 128 * 10 * 64;
  EXPECT_NO_THROW(MemorySystem(cfg, stats));
}

}  // namespace
}  // namespace tsxhpc::sim
