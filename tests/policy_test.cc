// Unit tests for the TxPolicy seam: the per-policy decision tables, the
// per-site adaptive state machines, and the end-to-end property the seam
// exists for — swapping the policy changes scheduling deterministically,
// identically across execution backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "sim/invariants.h"
#include "sim/machine.h"
#include "sim/shared.h"
#include "sim/telemetry.h"
#include "sync/elision.h"
#include "sync/monitor.h"
#include "sync/policy.h"

namespace tsxhpc::sync {
namespace {

using sim::AbortCause;
using sim::Context;
using sim::Machine;
using sim::MachineConfig;
using sim::RunStats;
using sim::Shared;
using sim::TxAbort;
using sim::TxPolicyKind;

constexpr sim::Addr kSite = 0x1000;
constexpr sim::ThreadId kTid = 0;

TxAbort conflict() { return {AbortCause::kConflict, 0, true}; }
TxAbort capacity_write() { return {AbortCause::kCapacityWrite, 0, false}; }
TxAbort capacity_read() { return {AbortCause::kCapacityRead, 0, true}; }
TxAbort lock_busy() { return {AbortCause::kExplicit, kAbortCodeLockBusy, true}; }

std::shared_ptr<TxPolicy> make(TxPolicyKind kind, ElisionPolicy knobs = {},
                               TxSiteTraits traits = {true, true}) {
  return make_tx_policy(kind, knobs, traits);
}

TEST(PaperPolicy, DecisionTable) {
  auto p = make(TxPolicyKind::kPaper);
  ASSERT_TRUE(p->should_attempt(kSite, kTid));

  // Lock busy + spin_until_free: wait for the word, then retry.
  TxDecision d = p->on_abort(kSite, kTid, lock_busy(), 0);
  EXPECT_EQ(d.action, TxDecision::Action::kWaitForLock);
  EXPECT_TRUE(d.retry);

  // Conflict: fixed backoff, then retry.
  d = p->on_abort(kSite, kTid, conflict(), 1);
  EXPECT_EQ(d.action, TxDecision::Action::kBackoff);
  EXPECT_EQ(d.backoff, ElisionPolicy{}.conflict_backoff);
  EXPECT_TRUE(d.retry);

  // Write-set overflow clears the retry hint: immediate fallback.
  d = p->on_abort(kSite, kTid, capacity_write(), 2);
  EXPECT_FALSE(d.retry);
  EXPECT_EQ(d.action, TxDecision::Action::kNone);
}

TEST(PaperPolicy, FinalAttemptStillPerformsTheWait) {
  // The pre-seam loop ran the abort handler before noticing the budget was
  // spent, so the last lock-busy abort still waits for the word — the
  // decision must express "wait, then fall back".
  ElisionPolicy knobs;
  knobs.max_retries = 3;
  auto p = make(TxPolicyKind::kPaper, knobs);
  ASSERT_TRUE(p->should_attempt(kSite, kTid));
  TxDecision d = p->on_abort(kSite, kTid, lock_busy(), 2);
  EXPECT_EQ(d.action, TxDecision::Action::kWaitForLock);
  EXPECT_FALSE(d.retry);
  d = p->on_abort(kSite, kTid, conflict(), 2);
  EXPECT_EQ(d.action, TxDecision::Action::kBackoff);
  EXPECT_FALSE(d.retry);
}

TEST(PaperPolicy, NoSpinUntilFreeRetriesImmediately) {
  ElisionPolicy knobs;
  knobs.spin_until_free = false;
  auto p = make(TxPolicyKind::kPaper, knobs);
  ASSERT_TRUE(p->should_attempt(kSite, kTid));
  TxDecision d = p->on_abort(kSite, kTid, lock_busy(), 0);
  EXPECT_EQ(d.action, TxDecision::Action::kNone);
  EXPECT_TRUE(d.retry);
}

TEST(PaperPolicy, TwoCapacityStrikesEndTheSection) {
  // The read tracker is probabilistic, so one read-capacity abort is worth a
  // retry; the second means the section genuinely does not fit.
  auto p = make(TxPolicyKind::kPaper);
  ASSERT_TRUE(p->should_attempt(kSite, kTid));
  TxDecision d = p->on_abort(kSite, kTid, capacity_read(), 0);
  EXPECT_TRUE(d.retry);
  EXPECT_EQ(d.action, TxDecision::Action::kBackoff);
  d = p->on_abort(kSite, kTid, capacity_read(), 1);
  EXPECT_FALSE(d.retry);
  // The strike counter is per section: a fresh section starts clean.
  ASSERT_TRUE(p->should_attempt(kSite, kTid));
  d = p->on_abort(kSite, kTid, capacity_read(), 0);
  EXPECT_TRUE(d.retry);
  // ...and per thread: another thread's strikes are its own.
  ASSERT_TRUE(p->should_attempt(kSite, 1));
  d = p->on_abort(kSite, 1, capacity_read(), 0);
  EXPECT_TRUE(d.retry);
}

TEST(PaperPolicy, LocksetTraitsDisableCapacityBreak) {
  // ElidedLockSet and TxMonitor never ran the two-strike break pre-seam.
  auto p = make(TxPolicyKind::kPaper, {}, TxSiteTraits{false, false});
  ASSERT_TRUE(p->should_attempt(kSite, kTid));
  for (int attempt = 0; attempt < 4; ++attempt) {
    TxDecision d = p->on_abort(kSite, kTid, capacity_read(), attempt);
    EXPECT_TRUE(d.retry) << attempt;
  }
}

TEST(PaperPolicy, ZeroBudgetSkips) {
  ElisionPolicy knobs;
  knobs.max_retries = 0;
  auto p = make(TxPolicyKind::kPaper, knobs);
  EXPECT_FALSE(p->should_attempt(kSite, kTid));
}

TEST(PaperPolicy, AdaptiveHolidayTriggersAndDoubles) {
  ElisionPolicy knobs;
  knobs.adaptive_skip = 4;
  knobs.adaptive_trigger = 2;
  auto p = make(TxPolicyKind::kPaper, knobs);
  auto hard_fallback_section = [&] {
    EXPECT_TRUE(p->should_attempt(kSite, kTid));
    (void)p->on_abort(kSite, kTid, capacity_write(), 0);
    p->on_fallback(kSite, kTid);
  };
  hard_fallback_section();
  hard_fallback_section();  // trigger reached: holiday of 4 starts
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(p->should_attempt(kSite, kTid)) << "holiday section " << i;
  }
  // The consecutive counter is already past the trigger, so while the
  // condition persists a SINGLE further hard fallback re-arms the holiday
  // immediately, with a doubled base.
  hard_fallback_section();
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(p->should_attempt(kSite, kTid)) << "2nd holiday " << i;
  }
  // A transactional commit forgives: base resets, counter clears.
  EXPECT_TRUE(p->should_attempt(kSite, kTid));
  p->on_commit(kSite);
  hard_fallback_section();
  EXPECT_TRUE(p->should_attempt(kSite, kTid))
      << "one fallback below the trigger must not start a holiday";
}

TEST(PaperPolicy, ConflictFallbacksDoNotTriggerHoliday) {
  ElisionPolicy knobs;
  knobs.adaptive_trigger = 1;
  auto p = make(TxPolicyKind::kPaper, knobs);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(p->should_attempt(kSite, kTid)) << i;
    (void)p->on_abort(kSite, kTid, conflict(), 0);
    p->on_fallback(kSite, kTid);  // exhausted by conflicts, not capacity
  }
}

TEST(NoHintPolicy, RetriesCapacityToTheBudget) {
  auto p = make(TxPolicyKind::kNoHint);
  ASSERT_TRUE(p->should_attempt(kSite, kTid));
  for (int attempt = 0; attempt < 4; ++attempt) {
    TxDecision d = p->on_abort(kSite, kTid, capacity_write(), attempt);
    EXPECT_EQ(d.action, TxDecision::Action::kBackoff) << attempt;
    EXPECT_TRUE(d.retry) << attempt;
  }
  TxDecision d = p->on_abort(kSite, kTid, capacity_write(), 4);
  EXPECT_FALSE(d.retry);
  // Lock-busy handling is subscription semantics, not hint decoding: kept.
  ASSERT_TRUE(p->should_attempt(kSite, kTid));
  d = p->on_abort(kSite, kTid, lock_busy(), 0);
  EXPECT_EQ(d.action, TxDecision::Action::kWaitForLock);
}

TEST(ExpoBackoffPolicy, DoublesWithBoundedDeterministicJitter) {
  auto p = make(TxPolicyKind::kExpoBackoff);
  auto q = make(TxPolicyKind::kExpoBackoff);  // identical twin
  const sim::Cycles unit = ElisionPolicy{}.conflict_backoff;
  ASSERT_TRUE(p->should_attempt(kSite, kTid));
  ASSERT_TRUE(q->should_attempt(kSite, kTid));
  for (int attempt = 0; attempt < 10; ++attempt) {
    const sim::Cycles base = unit << std::min(attempt, 6);
    TxDecision d = p->on_abort(kSite, kTid, conflict(), attempt);
    EXPECT_EQ(d.action, TxDecision::Action::kBackoff);
    EXPECT_GE(d.backoff, base) << attempt;
    EXPECT_LT(d.backoff, 2 * base) << attempt;
    // Same (site, thread, attempt, draw index) => same jitter, always.
    TxDecision e = q->on_abort(kSite, kTid, conflict(), attempt);
    EXPECT_EQ(d.backoff, e.backoff) << attempt;
  }
  // Distinct threads draw from distinct streams (they back off apart —
  // that is the point of the jitter).
  ASSERT_TRUE(p->should_attempt(kSite, 1));
  bool any_different = false;
  for (int attempt = 0; attempt < 10; ++attempt) {
    TxDecision d = q->on_abort(kSite, kTid, conflict(), attempt);
    TxDecision e = p->on_abort(kSite, 1, conflict(), attempt);
    any_different |= d.backoff != e.backoff;
  }
  EXPECT_TRUE(any_different);
}

TEST(AdaptiveSitePolicy, AnyFallbackStartsAHolidayAndTheWindowDoubles) {
  ElisionPolicy knobs;
  knobs.adaptive_skip = 2;
  auto p = make(TxPolicyKind::kAdaptiveSite);
  auto q = make(TxPolicyKind::kAdaptiveSite, knobs);
  // Unlike the paper policy, a CONFLICT-driven fallback triggers the skip,
  // and a single one suffices.
  ASSERT_TRUE(q->should_attempt(kSite, kTid));
  (void)q->on_abort(kSite, kTid, conflict(), 0);
  q->on_fallback(kSite, kTid);
  EXPECT_FALSE(q->should_attempt(kSite, kTid));
  EXPECT_FALSE(q->should_attempt(kSite, kTid));
  EXPECT_TRUE(q->should_attempt(kSite, kTid));
  // Window doubled to 4 while fallbacks persist.
  q->on_fallback(kSite, kTid);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(q->should_attempt(kSite, kTid)) << i;
  }
  // A commit resets the window to the configured base.
  EXPECT_TRUE(q->should_attempt(kSite, kTid));
  q->on_commit(kSite);
  q->on_fallback(kSite, kTid);
  EXPECT_FALSE(q->should_attempt(kSite, kTid));
  EXPECT_FALSE(q->should_attempt(kSite, kTid));
  EXPECT_TRUE(q->should_attempt(kSite, kTid));
  (void)p;
}

TEST(AdaptiveSitePolicy, WindowCapsAt128) {
  ElisionPolicy knobs;
  knobs.adaptive_skip = 1;
  auto p = make(TxPolicyKind::kAdaptiveSite, knobs);
  for (int round = 0; round < 12; ++round) p->on_fallback(kSite, kTid);
  int holiday = 0;
  while (!p->should_attempt(kSite, kTid)) ++holiday;
  EXPECT_EQ(holiday, 128);
}

TEST(Classify, MapsDecisionsToTelemetryBuckets) {
  EXPECT_EQ(classify(TxDecision::Retry()), sim::PolicyDecision::kRetry);
  EXPECT_EQ(classify(TxDecision::BackoffThenRetry(120)),
            sim::PolicyDecision::kBackoff);
  EXPECT_EQ(classify(TxDecision::WaitForLockThenRetry()),
            sim::PolicyDecision::kLockWait);
  EXPECT_EQ(classify(TxDecision::Fallback()), sim::PolicyDecision::kFallback);
  // "What happens next" wins: a final-attempt wait counts as a fallback.
  EXPECT_EQ(classify(TxDecision::WaitForLockThenRetry(false)),
            sim::PolicyDecision::kFallback);
  EXPECT_EQ(classify(TxDecision::BackoffThenRetry(120, false)),
            sim::PolicyDecision::kFallback);
}

// ---------------------------------------------------------------------------
// End-to-end: the seam actually steers the primitives, deterministically and
// identically on both execution backends.

struct WorkloadResult {
  sim::Cycles makespan = 0;
  std::uint64_t aborts = 0;
  std::uint64_t fallbacks = 0;
};

// Conflict-heavy sections plus a periodic over-capacity section: every
// policy's distinguishing branch (hint decoding, backoff schedule, holiday
// trigger) is exercised.
WorkloadResult run_mixed(TxPolicyKind kind, sim::BackendKind backend) {
  MachineConfig mc;
  mc.tx_policy = kind;
  mc.backend = backend;
  Machine m(mc);
  ElidedLock lock(m);
  auto counter = Shared<std::uint64_t>::alloc(m, 0);
  const auto& cfg = m.config();
  const std::size_t lines = cfg.l1_ways + 2;
  const std::size_t stride = cfg.l1_sets() * cfg.line_bytes;
  sim::Addr big = m.alloc(stride * lines, 64);
  RunStats rs = m.run({.threads = 4, .body = [&](Context& c) {
    for (int i = 0; i < 60; ++i) {
      if (i % 12 == 5 && c.tid() == 0) {
        lock.critical(c, [&] {
          for (std::size_t j = 0; j < lines; ++j) c.store(big + j * stride, j);
        });
      } else {
        lock.critical(c, [&] {
          counter.store(c, counter.load(c) + 1);
          c.compute(60);
        });
      }
    }
  }});
  const std::uint64_t expected = 4 * 60 - 5;  // five oversized sections
  EXPECT_EQ(counter.peek(m), expected) << "mutual exclusion must hold";
  return {rs.makespan, lock.stats().aborts, lock.stats().fallback_acquires};
}

TEST(PolicySeam, PoliciesAreDeterministicAndBackendInvariant) {
  for (TxPolicyKind kind :
       {TxPolicyKind::kPaper, TxPolicyKind::kNoHint,
        TxPolicyKind::kExpoBackoff, TxPolicyKind::kAdaptiveSite}) {
    WorkloadResult a = run_mixed(kind, sim::BackendKind::kFiber);
    WorkloadResult b = run_mixed(kind, sim::BackendKind::kFiber);
    EXPECT_EQ(a.makespan, b.makespan) << sim::to_string(kind);
    EXPECT_EQ(a.aborts, b.aborts) << sim::to_string(kind);
    WorkloadResult t = run_mixed(kind, sim::BackendKind::kThread);
    EXPECT_EQ(a.makespan, t.makespan) << sim::to_string(kind);
    EXPECT_EQ(a.aborts, t.aborts) << sim::to_string(kind);
    EXPECT_EQ(a.fallbacks, t.fallbacks) << sim::to_string(kind);
  }
}

TEST(PolicySeam, PoliciesProduceDistinctSchedules) {
  WorkloadResult paper = run_mixed(TxPolicyKind::kPaper, sim::BackendKind::kFiber);
  WorkloadResult nohint =
      run_mixed(TxPolicyKind::kNoHint, sim::BackendKind::kFiber);
  WorkloadResult expo =
      run_mixed(TxPolicyKind::kExpoBackoff, sim::BackendKind::kFiber);
  WorkloadResult adaptive =
      run_mixed(TxPolicyKind::kAdaptiveSite, sim::BackendKind::kFiber);
  // Four policies, four schedules: every pair lands on a different makespan.
  const sim::Cycles spans[] = {paper.makespan, nohint.makespan, expo.makespan,
                               adaptive.makespan};
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      EXPECT_NE(spans[i], spans[j]) << i << " vs " << j;
    }
  }
  // no-hint burns the whole retry budget on hopeless capacity aborts, so the
  // oversized sections take longer to reach the lock.
  EXPECT_GT(nohint.makespan, paper.makespan);
  // expo-backoff spreads the same retries across longer, jittered waits.
  EXPECT_GT(expo.makespan, paper.makespan);
  // adaptive-site's holidays convert retries into immediate acquisitions.
  EXPECT_GT(adaptive.fallbacks, paper.fallbacks);
}

// ---------------------------------------------------------------------------
// The skip branch of the elided-section loop, on every primitive that runs
// through it: under adaptive-site each fallback puts the site on a holiday,
// so the sections after an oversized one skip elision, and the per-site
// decision counts still reconcile.

enum class Primitive { kLock, kLockset, kMonitor };

struct PrimitiveCase {
  Primitive primitive;
  sim::LockKind kind;  // how telemetry files the primitive's site
  const char* name;
};

void PrintTo(const PrimitiveCase& p, std::ostream* os) { *os << p.name; }

class SkipBranch : public ::testing::TestWithParam<PrimitiveCase> {};

TEST_P(SkipBranch, AdaptiveSiteSkipsAndCountsReconcile) {
  sim::Telemetry tel;
  MachineConfig mc;
  mc.telemetry = &tel;
  mc.tx_policy = TxPolicyKind::kAdaptiveSite;
  Machine m(mc);
  ElidedLock lock(m);
  SpinLock a(m), b(m);
  ElidedLockSet set;
  TxMonitor mon(m, MonitorScheme::kTsxCond);
  auto counter = Shared<std::uint64_t>::alloc(m, 0);
  const auto& cfg = m.config();
  const std::size_t lines = cfg.l1_ways + 2;  // one L1 set overflows
  const std::size_t stride = cfg.l1_sets() * cfg.line_bytes;
  const sim::Addr big = m.alloc(stride * lines, 64);

  auto section = [&](Context& c, auto&& body) {
    switch (GetParam().primitive) {
      case Primitive::kLock:
        lock.critical(c, body);
        break;
      case Primitive::kLockset:
        set.critical(c, {&a, &b}, body);
        break;
      case Primitive::kMonitor:
        mon.enter(c, [&](MonitorOps&) { body(); });
        break;
    }
  };
  m.run({.threads = 2, .body = [&](Context& c) {
    for (int i = 0; i < 24; ++i) {
      if (i % 6 == 0) {
        section(c, [&] {
          for (std::size_t j = 0; j < lines; ++j) c.store(big + j * stride, j);
        });
      } else {
        section(c, [&] { counter.store(c, counter.load(c) + 1); });
      }
    }
  }});
  EXPECT_EQ(counter.peek(m), 2u * 20u) << "mutual exclusion must hold";

  const sim::LockSiteStats* site = nullptr;
  for (const auto& [addr, ls] : tel.runs().back().locks) {
    if (ls.kind == GetParam().kind) site = &ls;
  }
  ASSERT_NE(site, nullptr);
  EXPECT_GT(site->policy_decisions[static_cast<std::size_t>(
                sim::PolicyDecision::kSkip)],
            0u);
  EXPECT_EQ(sim::to_string(sim::check_invariants(tel)), "");
}

INSTANTIATE_TEST_SUITE_P(
    EveryPrimitive, SkipBranch,
    ::testing::Values(
        PrimitiveCase{Primitive::kLock, sim::LockKind::kElided, "elided_lock"},
        PrimitiveCase{Primitive::kLockset, sim::LockKind::kLockset, "lockset"},
        PrimitiveCase{Primitive::kMonitor, sim::LockKind::kMonitor,
                      "monitor_tsx_cond"}),
    [](const ::testing::TestParamInfo<PrimitiveCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace tsxhpc::sync
