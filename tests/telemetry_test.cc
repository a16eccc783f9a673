// Tests for the structured telemetry layer: determinism of the exported
// artifacts, zero observer effect on simulated timing, attempt-ring
// bounding, and the perf_report() regressions fixed alongside.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sim/machine.h"
#include "sim/perf.h"
#include "sim/shared.h"
#include "sim/telemetry.h"
#include "sync/elision.h"

namespace tsxhpc::sim {
namespace {

/// A small contended workload exercising elision commits, retries,
/// fallbacks, conflicts and futex traffic — every telemetry hook fires.
RunStats contended_run(Telemetry* tel, int threads = 4, int iters = 60,
                       std::string label = {}) {
  MachineConfig cfg;
  cfg.telemetry = tel;
  Machine m(cfg);
  sync::ElidedLock lock(m);
  auto cells = SharedArray<std::uint64_t>::alloc(m, 8, 0);
  return m.run({.threads = threads, .body = [&](Context& c) {
    for (int i = 0; i < iters; ++i) {
      lock.critical(c, [&] {
        auto cell = cells.at((c.tid() + i) % 8);
        cell.store(c, cell.load(c) + 1);
        c.compute(80);
      });
    }
  }, .label = std::move(label)});
}

TEST(Telemetry, ExportsAreByteIdenticalAcrossRuns) {
  TelemetryOptions opt;
  opt.collect_attempts = true;
  Telemetry a(opt);
  Telemetry b(opt);
  contended_run(&a, 4, 60, "golden");
  contended_run(&b, 4, 60, "golden");
  EXPECT_EQ(a.json("telemetry_test"), b.json("telemetry_test"));
  EXPECT_EQ(a.chrome_trace(), b.chrome_trace());
  // And the artifact is non-trivial: the run actually recorded something.
  ASSERT_EQ(a.runs().size(), 1u);
  EXPECT_TRUE(a.runs()[0].complete);
  EXPECT_GT(a.runs()[0].stats.total().tx_committed, 0u);
}

TEST(Telemetry, FileExportsAreAtomicRenames) {
  Telemetry tel;
  contended_run(&tel, 2, 20, "atomic");
  const std::string path = ::testing::TempDir() + "telemetry_test_atomic.json";
  ASSERT_TRUE(tel.write_json(path, "telemetry_test"));
  // write_json stages to <path>.tmp and renames into place: the artifact
  // exists with the full contents, the staging file does not.
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  EXPECT_EQ(std::fopen((path + ".tmp").c_str(), "r"), nullptr);
  std::remove(path.c_str());
  // A failing write (unwritable directory) reports false and leaves neither
  // the artifact nor a stray .tmp behind.
  EXPECT_FALSE(tel.write_json("/nonexistent-dir/t.json", "telemetry_test"));
}

TEST(Telemetry, AttachingDoesNotPerturbSimulatedTiming) {
  Telemetry tel;
  const RunStats with = contended_run(&tel);
  const RunStats without = contended_run(nullptr);
  EXPECT_EQ(with.makespan, without.makespan);
  EXPECT_EQ(with.total().tx_started, without.total().tx_started);
  EXPECT_EQ(with.total().l1_misses, without.total().l1_misses);
}

TEST(Telemetry, RecordsLockSitesAndAttemptChains) {
  TelemetryOptions opt;
  opt.collect_attempts = true;
  Telemetry tel(opt);
  contended_run(&tel);
  const RunRecord& r = tel.runs().at(0);

  // The elided lock registered exactly one site, with outcomes accounted.
  ASSERT_EQ(r.locks.size(), 1u);
  const LockSiteStats& site = r.locks.begin()->second;
  EXPECT_EQ(site.kind, LockKind::kElided);
  EXPECT_GT(site.elided_commits, 0u);
  EXPECT_EQ(site.elided_commits + site.fallback_acquires, 4u * 60u);
  EXPECT_GT(site.elision_rate(), 0.0);
  EXPECT_LE(site.elision_rate(), 1.0);

  // Attempt records are per-thread chronological (threads interleave in the
  // ring in completion order, but each thread's clock only moves forward)
  // and attributed to that site.
  const auto attempts = r.attempts_in_order();
  ASSERT_FALSE(attempts.empty());
  std::map<ThreadId, Cycles> last_end;
  for (const auto& rec : attempts) {
    EXPECT_GE(rec.end, rec.start);
    EXPECT_GE(rec.end, last_end[rec.tid]);
    last_end[rec.tid] = rec.end;
    if (!rec.fallback) {
      EXPECT_EQ(rec.site, r.locks.begin()->first);
    }
  }
  // Lineage aggregates cover every section outcome.
  std::uint64_t sections = 0;
  for (auto n : r.committed_by_attempt) sections += n;
  for (auto n : r.fallback_after_attempts) sections += n;
  EXPECT_EQ(sections, 4u * 60u);
}

TEST(Telemetry, PolicyDecisionsReconcileWithAbortsAndFallbacks) {
  Telemetry tel;
  const RunStats rs = contended_run(&tel);
  const RunRecord& r = tel.runs().at(0);
  ASSERT_EQ(r.locks.size(), 1u);
  const LockSiteStats& site = r.locks.begin()->second;
  auto count = [&](PolicyDecision d) {
    return site.policy_decisions[static_cast<std::size_t>(d)];
  };
  // Exactly one decision per abort...
  EXPECT_EQ(count(PolicyDecision::kRetry) + count(PolicyDecision::kBackoff) +
                count(PolicyDecision::kLockWait) +
                count(PolicyDecision::kFallback),
            site.tx_aborts);
  // ...and every real acquisition is preceded by exactly one section-ending
  // decision or one adaptive skip.
  EXPECT_EQ(count(PolicyDecision::kFallback) + count(PolicyDecision::kSkip),
            site.fallback_acquires);
  EXPECT_GT(site.policy_decisions_total(), 0u);
  // The backoff sub-counter never exceeds its bucket.
  for (const ThreadStats& t : rs.threads) {
    EXPECT_LE(t.backoff_cycles,
              t.cycles_by_bucket[static_cast<std::size_t>(
                  CycleBucket::kTxWasted)]);
  }
}

TEST(Telemetry, AttemptRingDropsOldestWhenFull) {
  TelemetryOptions opt;
  opt.collect_attempts = true;
  opt.max_attempts = 16;
  Telemetry tel(opt);
  contended_run(&tel);
  const RunRecord& r = tel.runs().at(0);
  EXPECT_EQ(r.attempts.size(), 16u);
  EXPECT_GT(r.attempts_dropped, 0u);
  // The unrolled ring holds the *latest* records, per-thread in order.
  const auto attempts = r.attempts_in_order();
  ASSERT_EQ(attempts.size(), 16u);
  std::map<ThreadId, Cycles> last_end;
  for (const auto& rec : attempts) {
    EXPECT_GE(rec.end, last_end[rec.tid]);
    last_end[rec.tid] = rec.end;
  }
}

TEST(Telemetry, RunLabelsAdoptAndSuffix) {
  Telemetry tel;
  contended_run(&tel, 2, 4, "sweep/t4");
  // Re-announcing the same label means "another run of the same region":
  // the sticky suffixing kicks in.
  contended_run(&tel, 2, 4, "sweep/t4");
  contended_run(&tel, 2, 4);
  ASSERT_EQ(tel.runs().size(), 3u);
  EXPECT_EQ(tel.runs()[0].label, "sweep/t4");
  EXPECT_EQ(tel.runs()[1].label, "sweep/t4#2");
  EXPECT_EQ(tel.runs()[2].label, "sweep/t4#3");
}

/// Minimal structural JSON check: balanced braces/brackets outside strings,
/// no trailing garbage. Catches emitter bugs (unclosed scopes, stray commas
/// would unbalance nothing but malformed escapes would).
void expect_balanced_json(const std::string& s) {
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_str) {
      if (c == '\\')
        ++i;
      else if (c == '"')
        in_str = false;
    } else if (c == '"') {
      in_str = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_FALSE(in_str);
  EXPECT_EQ(depth, 0);
}

TEST(Telemetry, JsonAndTraceAreStructurallyValid) {
  TelemetryOptions opt;
  opt.collect_attempts = true;
  Telemetry tel(opt);
  contended_run(&tel, 4, 60, "validity");
  const std::string j = tel.json("telemetry_test");
  expect_balanced_json(j);
  EXPECT_NE(j.find("\"schema\":\"tsxhpc-telemetry-v7\""), std::string::npos);
  EXPECT_NE(j.find("\"label\":\"validity\""), std::string::npos);
  EXPECT_NE(j.find("\"backoff_cycles\""), std::string::npos);
  EXPECT_NE(j.find("\"policy\""), std::string::npos);
  EXPECT_NE(j.find("\"llc_misses\""), std::string::npos);
  EXPECT_NE(j.find("\"mem_stall\""), std::string::npos);
  const std::string t = tel.chrome_trace();
  expect_balanced_json(t);
  EXPECT_NE(t.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(t.find("\"txn commit\""), std::string::npos);
}

TEST(Telemetry, V5SampleColumnsSumToRunTotals) {
  // The v5 interval columns (llc_misses, mem_stall) get an end_run tail
  // flush into the last bucket, so each column sums exactly to the run
  // total. (The v4 l1 columns deliberately keep their frozen, unflushed
  // semantics — goldens depend on those bytes.)
  Telemetry tel;
  const RunStats rs = contended_run(&tel, 4, 60, "sums");
  const RunRecord& r = tel.runs().at(0);
  ASSERT_FALSE(r.samples.empty());
  std::uint64_t llc = 0, stall = 0;
  for (const IntervalSample& s : r.samples) {
    llc += s.llc_misses;
    stall += s.mem_stall;
  }
  const ThreadStats tot = rs.total();
  EXPECT_EQ(llc, tot.llc_misses);
  EXPECT_EQ(stall, tot.bucket(CycleBucket::kMemStall));
}

TEST(PerfReport, GoldenSmallCounters) {
  RunStats rs;
  rs.threads.resize(1);
  ThreadStats& t = rs.threads[0];
  t.tx_started = 10;
  t.tx_committed = 8;
  t.tx_aborted[static_cast<size_t>(AbortCause::kConflict)] = 2;
  t.tx_cycles_committed = 800;
  t.tx_cycles_wasted = 200;
  t.tx_read_lines_evicted = 3;
  t.l1_hits = 100;
  t.l1_misses = 7;
  t.atomics = 4;
  t.syscalls = 1;
  rs.makespan = 12345;

  const std::string expected =
      "            10      tx-start\n"
      "             8      tx-commit\n"
      "             2      tx-abort                  #  20.0% of starts\n"
      "             2      tx-abort.conflict\n"
      "             0      tx-abort.capacity\n"
      "             0      tx-abort.explicit\n"
      "             0      tx-abort.syscall\n"
      "             0      tx-abort.capacity-read    # secondary-tracker "
      "losses\n"
      "          1000      cycles-t                  # cycles in "
      "transactions\n"
      "           800      cycles-ct                 # committed-transaction "
      "cycles\n"
      "           200      cycles-wasted             #  20.0% of "
      "transactional cycles\n"
      "             3      tx-read-lines-evicted     # secondary tracking\n"
      "           100      l1-hits\n"
      "             7      l1-misses\n"
      "             4      atomics\n"
      "             1      syscalls\n"
      "         12345      makespan-cycles\n"
      "  abort rate: 20.00% of started transactions\n"
      "  wasted cycles: 20.00% of transactional cycles\n";
  EXPECT_EQ(perf_report(rs), expected);
}

TEST(PerfReport, DoesNotTruncateWithLargeCounters) {
  // The old implementation rendered into a fixed 1536-byte buffer; with
  // 20-digit counters the report exceeds that and the tail was cut off.
  RunStats rs;
  rs.threads.resize(1);
  ThreadStats& t = rs.threads[0];
  t.tx_started = 18446744073709551615ULL;
  t.tx_committed = 18446744073709551615ULL;
  for (auto& a : t.tx_aborted) a = 1000000000000000000ULL;
  t.tx_cycles_committed = 18446744073709551615ULL;
  t.tx_read_lines_evicted = 18446744073709551615ULL;
  t.l1_hits = 18446744073709551615ULL;
  t.l1_misses = 18446744073709551615ULL;
  t.atomics = 18446744073709551615ULL;
  t.syscalls = 18446744073709551615ULL;
  rs.makespan = 18446744073709551615ULL;

  const std::string report = perf_report(rs);
  // All 19 lines survive (17 counters + 2 derived), none cut mid-way.
  std::size_t lines = 0;
  for (char c : report) lines += c == '\n';
  EXPECT_EQ(lines, 19u);
  // Every section survives, down to the final line.
  for (const char* label :
       {"tx-start", "tx-commit", "tx-abort.conflict", "tx-abort.capacity",
        "cycles-t", "cycles-ct", "cycles-wasted", "l1-hits", "l1-misses",
        "atomics", "syscalls", "makespan-cycles"}) {
    EXPECT_NE(report.find(label), std::string::npos) << label;
  }
  EXPECT_EQ(report.back(), '\n');
  EXPECT_NE(report.find("18446744073709551615      makespan-cycles\n"),
            std::string::npos);
}

}  // namespace
}  // namespace tsxhpc::sim
