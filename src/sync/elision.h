// RTM-based lock elision — the synchronization-library technique at the heart
// of the paper (Section 3), plus *lockset elision* (Section 5.2.1).
//
// Every elided primitive (ElidedLock, ElidedLockSet and, in monitor.h,
// TxMonitor) runs its critical sections through one loop, run_elided(),
// which owns the whole Section 3 protocol:
//
//   1. open the telemetry section and ask the machine's TxPolicy (see
//      sync/policy.h) whether to elide at all; a "no" is recorded as a skip
//      and goes straight to step 4 without telling the policy;
//   2. XBEGIN, subscribe every lock word (a held word aborts with
//      kAbortCodeLockBusy), run the body, XEND; a commit is counted in
//      ElisionStats, the policy and telemetry;
//   3. on abort, one decision per abort: the policy's (or the primitive's
//      own retry rule), recorded in telemetry, then the wait on the
//      subscribed words or the backoff it asks for; retry or fall back;
//   4. fall back: tell the policy (unless skipped), take the real lock and
//      run the body as one timed, serialized FallbackSlice.
//
// A primitive supplies a Section with only what differs:
//   locks                 the locks whose word() is subscribed; the first
//                         names the site, and an empty set reports nothing
//   run_tx(c)             the body inside the transaction; false means the
//                         body committed the transaction itself (the
//                         monitor's early commit before a wait)
//   own_retry(abort)      aborts the primitive retries by its own rule,
//                         burning an attempt (the monitor's condvar abort)
//   fallback(c, tel)      take the real lock, run the body in a
//                         FallbackSlice, release
//
// The loop holds no heap state and calls the Section statically, so the
// per-section cost is the primitive's own.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "sim/context.h"
#include "sync/locks.h"
#include "sync/policy.h"

namespace tsxhpc::sync {

/// Per-lock elision statistics (host-side: simulated threads are serialized
/// by the scheduler token, so plain integers are race-free).
struct ElisionStats {
  std::uint64_t elided_commits = 0;
  std::uint64_t fallback_acquires = 0;
  std::uint64_t aborts = 0;

  double elision_rate() const {
    const double total =
        static_cast<double>(elided_commits + fallback_acquires);
    return total == 0 ? 0.0 : static_cast<double>(elided_commits) / total;
  }
};

/// An elided section nested in an outer transactional region: subscribe
/// `word` too and run flat; any abort unwinds to the outermost retry loop.
template <typename F>
void run_flat_nested(Context& c, sim::Shared<std::uint32_t> word, F& f) {
  c.xbegin();
  if (word.load(c) != 0) c.xabort(kAbortCodeLockBusy);
  f();
  c.xend();
}

/// The timed fallback slice. Construct it right after the real lock is
/// taken; run() executes the body as serialized work; close() ends the open
/// telemetry section with the interval between the two. Each primitive
/// chooses whether close() comes before or after its release.
class FallbackSlice {
 public:
  FallbackSlice(Context& c, sim::Telemetry* tel)
      : c_(c), tel_(tel), acquired_(tel ? c.now() : 0) {}

  template <typename F>
  void run(F&& body) {
    {
      Context::FallbackScope serialized(c_);
      body();
    }
    released_ = tel_ ? c_.now() : 0;
  }

  void close() {
    if (tel_) tel_->section_fallback(c_.tid(), acquired_, released_);
  }

 private:
  Context& c_;
  sim::Telemetry* tel_;
  Cycles acquired_;
  Cycles released_ = 0;
};

/// The elided-section loop (see the file comment for the protocol and the
/// Section contract). Abort semantics follow hardware RTM: on abort,
/// everything the section did is rolled back and the body re-executes from
/// the top, so bodies must keep host-side effects idempotent.
template <typename Section>
void run_elided(Context& c, TxPolicy& brain, ElisionStats& stats,
                sim::LockKind kind, Section& s) {
  const bool named = !s.locks.empty();
  const sim::Addr site =
      named ? s.locks.front()->word().addr() : sim::kNullAddr;
  sim::Telemetry* tel = named ? c.machine().telemetry() : nullptr;
  const sim::ThreadId tid = c.tid();
  if (tel) tel->section_enter(tid, site, kind);
  // A skipped section (adaptive holiday or zero budget) is not reported to
  // the policy's on_fallback: it carries no evidence about elision.
  const bool elide = brain.should_attempt(site, tid);
  if (!elide && tel) tel->policy_decision(tid, sim::PolicyDecision::kSkip);
  for (int attempt = 0; elide; ++attempt) {
    try {
      c.xbegin();
      // One XBEGIN subscribes every lock of the section: for a lockset this
      // replaces N atomic acquisitions.
      for (auto* l : s.locks) {
        if (l->word().load(c) != 0) c.xabort(kAbortCodeLockBusy);
      }
      if (s.run_tx(c)) c.xend();
      stats.elided_commits++;
      brain.on_commit(site);
      if (tel) tel->section_commit(tid);
      return;
    } catch (const sim::TxAbort& a) {
      stats.aborts++;
      const TxDecision d =
          s.own_retry(a)
              ? TxDecision::Retry(attempt + 1 < brain.max_attempts())
              : brain.on_abort(site, tid, a, attempt);
      if (tel) tel->policy_decision(tid, classify(d));
      switch (d.action) {
        case TxDecision::Action::kWaitForLock: {
          Context::LockWaitScope wait(c);
          for (auto* l : s.locks) {
            while (l->word().load(c) != 0) c.compute(80);
          }
          break;
        }
        case TxDecision::Action::kBackoff:
          c.tx_backoff(d.backoff);
          break;
        case TxDecision::Action::kNone:
          break;
      }
      if (!d.retry) break;
    }
  }
  stats.fallback_acquires++;
  if (elide) brain.on_fallback(site, tid);
  s.fallback(c, tel);
}

namespace detail {

/// The Section of a SpinLock-guarded region: one lock (ElidedLock) or a set
/// (ElidedLockSet). The fallback acquires the set in address order to stay
/// deadlock free, each lock once: a batched lockset (dynamic coarsening
/// over constraints sharing an object) may name the same lock twice, and
/// acquiring it twice would self-deadlock.
template <typename F>
struct SpinLockSection {
  std::span<SpinLock*> locks;
  F& f;

  bool run_tx(Context&) {
    f();
    return true;
  }
  static bool own_retry(const sim::TxAbort&) { return false; }

  void fallback(Context& c, sim::Telemetry* tel) {
    std::sort(locks.begin(), locks.end(),
              [](const SpinLock* a, const SpinLock* b) {
                return a->word().addr() < b->word().addr();
              });
    const std::span<SpinLock*> held =
        locks.first(std::unique(locks.begin(), locks.end()) - locks.begin());
    for (SpinLock* l : held) l->acquire(c);
    FallbackSlice slice(c, tel);
    slice.run(f);
    for (auto it = held.rbegin(); it != held.rend(); ++it) (*it)->release(c);
    slice.close();
  }
};

}  // namespace detail

/// A lock whose critical sections are executed via RTM lock elision.
class ElidedLock {
 public:
  explicit ElidedLock(Machine& m, ElisionPolicy policy = {})
      : lock_(m),
        brain_(make_tx_policy(m.config().tx_policy, policy, kTraits)) {}

  /// Execute `f` as an elided critical section (it may re-execute; see
  /// run_elided).
  template <typename F>
  void critical(Context& c, F&& f) {
    if (c.in_txn()) {
      run_flat_nested(c, lock_.word(), f);
      return;
    }
    SpinLock* lock[] = {&lock_};
    detail::SpinLockSection s{std::span<SpinLock*>(lock), f};
    run_elided(c, *brain_, stats_, sim::LockKind::kElided, s);
  }

  /// Explicit (non-transactional) acquisition, for code that needs the lock
  /// across scopes. Any concurrent elided sections subscribed to this lock
  /// are doomed by this write, as on real hardware.
  void acquire(Context& c) {
    stats_.fallback_acquires++;
    lock_.acquire(c);
  }
  void release(Context& c) { lock_.release(c); }

  SpinLock& underlying() { return lock_; }
  const ElisionStats& stats() const { return stats_; }

 private:
  // The full Section 3 handler: adaptive skip and the two-strikes capacity
  // break.
  static constexpr TxSiteTraits kTraits{/*adaptive=*/true,
                                        /*capacity_break=*/true};

  SpinLock lock_;
  ElisionStats stats_;
  std::shared_ptr<TxPolicy> brain_;
};

/// Lockset elision (Section 5.2.1): replace the acquisition of a *set* of
/// locks with a single transactional region. Used by physicsSolver (two
/// object locks per constraint) and graphCluster (test-lock + set-lock
/// paths). The set's first named lock names the site.
class ElidedLockSet {
 public:
  explicit ElidedLockSet(ElisionPolicy policy = {}) : policy_(policy) {}

  /// Elide `locks` around `f`.
  template <typename F>
  void critical(Context& c, std::initializer_list<SpinLock*> locks, F&& f) {
    critical(c, std::vector<SpinLock*>(locks), std::forward<F>(f));
  }
  template <typename F>
  void critical(Context& c, std::vector<SpinLock*> locks, F&& f) {
    detail::SpinLockSection s{std::span<SpinLock*>(locks), f};
    run_elided(c, brain(c), stats_, sim::LockKind::kLockset, s);
  }

  const ElisionStats& stats() const { return stats_; }

 private:
  // Neither the adaptive skip nor the capacity break: a set shares one
  // retry loop across many object pairs, so per-section strikes say little
  // about the site.
  static constexpr TxSiteTraits kTraits{/*adaptive=*/false,
                                        /*capacity_break=*/false};

  TxPolicy& brain(Context& c) {
    // A set has no Machine until its first section: bind the brain to the
    // machine that section runs on. Copies made after that share it.
    if (!brain_) {
      brain_ = make_tx_policy(c.machine().config().tx_policy, policy_,
                              kTraits);
    }
    return *brain_;
  }

  ElisionPolicy policy_;
  ElisionStats stats_;
  std::shared_ptr<TxPolicy> brain_;
};

}  // namespace tsxhpc::sync
