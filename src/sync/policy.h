// TxPolicy — the pluggable retry/backoff/fallback brain behind every elided
// primitive (the paper's Section 3 software fallback handler, made a seam).
//
// Contract: the policy *decides* and the elided-section loop (run_elided in
// sync/elision.h, the only caller of the TxPolicy hooks) *executes*. A
// policy answers "should this section elide at all" (adaptive skip) and
// "after this abort, what next" (retry / backoff-then-retry / wait-for-lock-
// then-retry / fall back); the loop performs the chosen spin on the
// section's own lock words or charges the backoff to its Context, so cycle
// accounting and lock-word traffic stay with the primitive. hle.h is
// deliberately NOT a consumer: its 2-attempt policy is hardware behaviour,
// not software (Section 2).
//
// Four concrete policies ship (selected by MachineConfig::tx_policy, i.e.
// the benches' --policy= flag):
//
//   paper         the Section 3 handler (the default; the committed
//                 baselines pin it)
//   no-hint       ignores the abort-status retry hint: every non-lock-busy
//                 abort is retried with backoff until the budget runs out
//   expo-backoff  paper's decisions, but the conflict backoff doubles per
//                 attempt with deterministic per-(site,thread) jitter
//   adaptive-site glibc-style per-site elision skip (doubling holiday after
//                 any abort-driven fallback), applied to every site kind
#pragma once

#include <cstdint>
#include <memory>

#include "sim/config.h"
#include "sim/telemetry.h"
#include "sim/types.h"

namespace tsxhpc::sync {

/// XABORT code used when a subscribed lock word is observed held.
inline constexpr std::uint8_t kAbortCodeLockBusy = 0xFF;

/// Whether the hardware would set the "retry may succeed" status bit.
/// Conflicts are transient, and so are secondary-read-tracker losses (the
/// loss depends on incidental cache state, which differs on retry) — this
/// is why the paper's retry-5 policy pays off on vacation despite its
/// 38-52% abort rates. Write-set overflow, syscalls and nesting overflow
/// fail deterministically and clear the hint.
inline bool retry_may_succeed(sim::AbortCause cause) {
  return cause == sim::AbortCause::kConflict ||
         cause == sim::AbortCause::kCapacityRead;
}

/// Capacity-class causes: even when individually retryable, a section that
/// keeps dying of these is structurally oversized and should trigger the
/// adaptive elision holiday.
inline bool is_capacity_class(sim::AbortCause cause) {
  return cause == sim::AbortCause::kCapacityWrite ||
         cause == sim::AbortCause::kCapacityRead ||
         cause == sim::AbortCause::kSyscall ||
         cause == sim::AbortCause::kNesting;
}

/// Fallback policy knobs (the numbers; the *logic* consuming them is the
/// TxPolicy implementation selected by MachineConfig::tx_policy).
struct ElisionPolicy {
  /// Transactional attempts before explicitly acquiring the lock.
  int max_retries = 5;
  /// Wait for the lock to become free before retrying after a lock-busy
  /// abort (avoids the lemming effect: immediately re-eliding while the
  /// lock is held just aborts again).
  bool spin_until_free = true;
  /// Aborts whose cause cannot succeed on retry (capacity, syscall,
  /// nesting) skip the remaining attempts — the analogue of the hardware
  /// abort-status "retry" hint bit being clear.
  bool honor_retry_hint = true;
  /// Backoff between transactional retries after a conflict abort.
  sim::Cycles conflict_backoff = 120;
  /// Adaptive elision (glibc-style skip_lock_internal_abort): once
  /// `adaptive_trigger` CONSECUTIVE sections end in capacity/syscall-driven
  /// fallbacks, skip elision for `adaptive_skip` sections, doubling the
  /// holiday (capped at 128) while the condition persists. Structurally
  /// hopeless sections (labyrinth's over-capacity copies) degenerate to
  /// plain locking; workloads whose sections only *sometimes* overflow
  /// (vacation) keep eliding the ones that fit.
  int adaptive_skip = 4;
  int adaptive_trigger = 4;
};

/// What to do after one aborted attempt. The policy decides; run_elided
/// executes it on the section's lock words and Context.
///
/// `retry` is carried separately from the action because the paper's handler
/// performs the lock-busy wait / conflict backoff even after the FINAL
/// failed attempt, then falls back — "wait, then fall back" is a real
/// decision and must stay expressible or the fallback path's timing changes.
struct TxDecision {
  enum class Action : std::uint8_t {
    kNone,         // no delay before what comes next
    kBackoff,      // charge `backoff` cycles (Context::tx_backoff)
    kWaitForLock,  // spin until every subscribed lock word reads free
  };

  Action action = Action::kNone;
  bool retry = true;          // false: fall back after performing `action`
  sim::Cycles backoff = 0;    // kBackoff only

  static TxDecision Retry(bool then_retry = true) {
    return {Action::kNone, then_retry, 0};
  }
  static TxDecision BackoffThenRetry(sim::Cycles cycles,
                                     bool then_retry = true) {
    return {Action::kBackoff, then_retry, cycles};
  }
  static TxDecision WaitForLockThenRetry(bool then_retry = true) {
    return {Action::kWaitForLock, then_retry, 0};
  }
  static TxDecision Fallback() { return {Action::kNone, false, 0}; }
};

/// Telemetry classification of a decision: "what happens next" (retry vs
/// fallback) wins, then the flavour of delay before the retry. A final-
/// attempt backoff/wait therefore counts as a fallback — which is what makes
/// the per-site counts reconcile: retries+backoffs+lock_waits+fallbacks ==
/// tx_aborts (one decision per abort) and fallbacks+skips ==
/// fallback_acquires (every real acquisition is preceded by exactly one
/// section-ending decision or one skip).
inline sim::PolicyDecision classify(const TxDecision& d) {
  if (!d.retry) return sim::PolicyDecision::kFallback;
  switch (d.action) {
    case TxDecision::Action::kBackoff: return sim::PolicyDecision::kBackoff;
    case TxDecision::Action::kWaitForLock:
      return sim::PolicyDecision::kLockWait;
    case TxDecision::Action::kNone: break;
  }
  return sim::PolicyDecision::kRetry;
}

/// Per-primitive semantics the `paper` (and `expo-backoff`) policy
/// respects: single-lock elision (ElidedLock, omp::Critical) runs the
/// adaptive skip and the two-strikes-per-section capacity break; lockset
/// elision and the monitor run neither. `adaptive-site` deliberately
/// ignores `adaptive` and skips on every site kind; `no-hint` ignores both
/// (it never decodes the cause).
struct TxSiteTraits {
  bool adaptive = false;        // should_attempt may decline (elision holiday)
  bool capacity_break = false;  // 2 capacity-class aborts end the section
};

/// The decision interface, called only by run_elided. One instance per
/// primitive (primitives construct their brain from MachineConfig::tx_policy
/// via make_tx_policy), holding
/// per-site adaptive state and per-(site,thread) section state — sections on
/// the same site run concurrently on different threads, so section-scoped
/// counters must be keyed by thread. All state is host-side plain data: the
/// scheduler token serializes every call.
class TxPolicy {
 public:
  virtual ~TxPolicy() = default;

  virtual const char* name() const = 0;

  /// Transactional attempt budget per section. Aborts a primitive retries
  /// by its own rule, without consulting on_abort (TxMonitor's
  /// condition-variable aborts are monitor semantics, not retry policy),
  /// still burn attempts against this budget.
  virtual int max_attempts() const = 0;

  /// Section entry. Resets per-(site,thread) section state; returning false
  /// means "do not elide, go straight to the lock" (the adaptive holiday —
  /// the caller records a `skip` decision and must NOT call on_fallback).
  virtual bool should_attempt(sim::Addr site, sim::ThreadId tid) = 0;

  /// One aborted attempt (0-based `attempt`). Exactly one decision per
  /// abort: telemetry's per-site decision counters reconcile against
  /// tx_aborts because of this 1:1 mapping.
  virtual TxDecision on_abort(sim::Addr site, sim::ThreadId tid,
                              const sim::TxAbort& abort, int attempt) = 0;

  /// The section committed transactionally.
  virtual void on_commit(sim::Addr site) = 0;

  /// The section exhausted its attempts (or drew a Fallback decision) and is
  /// about to acquire the lock for real. Not called for skipped sections.
  virtual void on_fallback(sim::Addr site, sim::ThreadId tid) = 0;
};

/// Build the brain selected by `kind` over the given knobs and site traits.
/// Returned shared so copies of a primitive share their adaptive state from
/// the moment its brain is bound: at construction for ElidedLock and
/// TxMonitor, at the first section for ElidedLockSet (which lives by value
/// in workload structs and has no Machine before then).
std::shared_ptr<TxPolicy> make_tx_policy(sim::TxPolicyKind kind,
                                         const ElisionPolicy& knobs,
                                         TxSiteTraits traits);

}  // namespace tsxhpc::sync
