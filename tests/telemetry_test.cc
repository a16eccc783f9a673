// Tests for the structured telemetry layer: determinism of the exported
// artifacts, zero observer effect on simulated timing, and attempt-ring
// bounding.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sim/invariants.h"
#include "sim/json_parse.h"
#include "sim/machine.h"
#include "sim/shared.h"
#include "sim/telemetry.h"
#include "sync/elision.h"

namespace tsxhpc::sim {
namespace {

/// A small contended workload exercising elision commits, retries,
/// fallbacks, conflicts and futex traffic — every telemetry hook fires. The
/// closing plain loads follow the last sampling event (a transaction end),
/// so they reach the interval samples only through the end_run flush.
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
    for (std::size_t k = 0; k < 8; ++k) (void)cells.at(k).load(c);
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
  // The policy rules of sim/invariants.h: exactly one decision per abort,
  // one section-ending decision or adaptive skip per real acquisition, and
  // backoff cycles within the tx_wasted bucket.
  Telemetry tel;
  contended_run(&tel);
  const RunRecord& r = tel.runs().at(0);
  ASSERT_EQ(r.locks.size(), 1u);
  EXPECT_GT(r.locks.begin()->second.tx_aborts, 0u);  // one decision each
  EXPECT_EQ(to_string(check_invariants(tel)), "");
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

/// Strict parse (sim/json_parse.h): unbalanced scopes, bad escapes, stray
/// commas and trailing bytes all fail with a located error.
void expect_valid_json(const std::string& s) {
  std::string err;
  JsonParser::parse(s, &err);
  EXPECT_EQ(err, "");
}

TEST(Telemetry, JsonAndTraceAreStructurallyValid) {
  TelemetryOptions opt;
  opt.collect_attempts = true;
  Telemetry tel(opt);
  contended_run(&tel, 4, 60, "validity");
  const std::string j = tel.json("telemetry_test");
  expect_valid_json(j);
  EXPECT_NE(j.find("\"schema\":\"tsxhpc-telemetry-v8\""), std::string::npos);
  EXPECT_NE(j.find("\"label\":\"validity\""), std::string::npos);
  EXPECT_NE(j.find("\"backoff_cycles\""), std::string::npos);
  EXPECT_NE(j.find("\"policy\""), std::string::npos);
  EXPECT_NE(j.find("\"llc_misses\""), std::string::npos);
  EXPECT_NE(j.find("\"mem_stall\""), std::string::npos);
  const std::string t = tel.chrome_trace();
  expect_valid_json(t);
  EXPECT_NE(t.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(t.find("\"txn commit\""), std::string::npos);
}

TEST(Telemetry, SampleColumnsSumToRunTotals) {
  // The memory interval columns (l1_hits, l1_misses, llc_misses, mem_stall)
  // get an end_run tail flush into the last bucket, so each column sums
  // exactly to the run total (the samples rule of sim/invariants.h); the
  // workload's closing loads are that tail.
  Telemetry tel;
  contended_run(&tel, 4, 60, "sums");
  ASSERT_FALSE(tel.runs().at(0).samples.empty());
  EXPECT_EQ(to_string(check_invariants(tel)), "");
}

}  // namespace
}  // namespace tsxhpc::sim
