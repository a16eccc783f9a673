// Monitors and condition variables under five synchronization schemes —
// the implementation options compared in the paper's TCP/IP stack study
// (Section 6): pthread-style mutex + condvar, TSX with abort-on-wait, TSX
// with a transactional-execution-aware condition variable (futex based,
// after Dudnik & Swift), and the busy-wait variants of Listing 6.
//
// Usage:
//   TxMonitor mon(machine, MonitorScheme::kTsxCond);
//   CondVar cv(machine);
//   mon.enter(ctx, [&](MonitorOps& ops) {
//     if (queue_empty()) ops.wait(cv);   // restarts the body after waking
//     pop(); ops.signal(space_cv);
//   });
//
// Monitor bodies re-execute from the top after a wait — the standard
// `while (!pred) wait();` recheck loop, expressed as restart. CONTRACT:
// statements executed on a path that reaches wait() must not perform shared
// writes (check the predicate first). This mirrors the paper's §6.1 "commit
// partial results when it finds the need to wait": with a read-only prefix,
// the early commit publishes nothing and cannot be half-applied.
//
// The mutex schemes run the body under the FutexMutex. The TSX schemes run
// it through run_elided() (sync/elision.h) like every elided primitive; the
// monitor's Section adds only the condition-variable abort it retries by
// its own rule, the early commit of a wait, and a fallback that closes its
// telemetry slice before releasing the mutex. Deferred signals are flushed
// after the section commits; a wait sleeps after it and restarts the body.
#pragma once

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/context.h"
#include "sync/elision.h"
#include "sync/locks.h"

namespace tsxhpc::sync {

enum class MonitorScheme {
  kMutex,          // pthread mutex + pthread condvar (baseline)
  kTsxAbort,       // elide; abort + take the lock whenever a condvar is used
  kTsxCond,        // elide; transactional-execution-aware condvar (futex)
  kMutexBusyWait,  // pthread mutex; waits replaced by busy-wait (Listing 6)
  kTsxBusyWait,    // elide; waits replaced by busy-wait
};

const char* to_string(MonitorScheme s);

/// Condition variable: a futex sequence word.
class CondVar {
 public:
  CondVar() = default;
  explicit CondVar(Machine& m)
      : seq_(sim::Shared<std::uint32_t>::alloc(m, {.name = "condvar"}, 0)) {}
  sim::Shared<std::uint32_t> seq() const { return seq_; }

 private:
  sim::Shared<std::uint32_t> seq_;
};

/// XABORT code used by kTsxAbort when a wait or signal needs the lock.
inline constexpr std::uint8_t kAbortCodeCondVar = 0xCD;

namespace detail {
/// Control-flow token thrown by MonitorOps::wait; caught by TxMonitor.
struct WaitToken {
  sim::Addr seq_addr = sim::kNullAddr;
  std::uint32_t captured_seq = 0;
};
}  // namespace detail

class TxMonitor;

/// Operations available to a monitor body.
class MonitorOps {
 public:
  /// Give up the monitor until `cv` is signalled (or, under busy-wait
  /// schemes, until a spin delay elapses); then restart the body.
  [[noreturn]] void wait(CondVar& cv);

  /// Signal one / all waiters. Under TSX schemes the futex update is
  /// deferred to the transaction's commit (the §6.1 callback); under mutex
  /// schemes it happens immediately.
  void signal(CondVar& cv) { queue_signal(cv, 1); }
  void broadcast(CondVar& cv) { queue_signal(cv, 1 << 30); }

 private:
  friend class TxMonitor;
  MonitorOps(TxMonitor& mon, Context& c, bool transactional)
      : mon_(mon), c_(c), transactional_(transactional) {}
  void queue_signal(CondVar& cv, int count);

  struct PendingSignal {
    sim::Addr seq_addr;
    int count;
  };

  TxMonitor& mon_;
  Context& c_;
  bool transactional_;
  // Per-attempt deferred-signal registry (the §6.1 commit callbacks). Each
  // body attempt owns its own MonitorOps, so an abort in ANOTHER thread
  // (or this one) can never discard someone else's pending signals.
  std::vector<PendingSignal> pending_;
};

/// A monitor (one internal lock) whose critical sections run under the
/// configured scheme. All workloads sharing a TxMonitor instance contend on
/// the same lock, exactly like the single locking module of the PARSEC
/// user-level TCP/IP stack. The TSX schemes elide through run_elided().
class TxMonitor {
 public:
  TxMonitor(Machine& m, MonitorScheme scheme, ElisionPolicy policy = {})
      : scheme_(scheme),
        mutex_(m),
        brain_(make_tx_policy(m.config().tx_policy, policy, kTraits)) {}

  const ElisionStats& stats() const { return stats_; }

  template <typename F>
  void enter(Context& c, F&& body) {
    for (;;) {  // wait-restart loop
      Section<std::remove_reference_t<F>> s{{&mutex_}, *this, body};
      if (scheme_ == MonitorScheme::kMutex ||
          scheme_ == MonitorScheme::kMutexBusyWait) {
        mutex_.acquire(c);
        s.run(c, /*transactional=*/false);
        mutex_.release(c);
      } else {
        run_elided(c, *brain_, stats_, sim::LockKind::kMonitor, s);
      }
      if (!s.waited) {
        flush_signals(c, s.pending);
        return;
      }
      do_wait(c, s.token);
    }
  }

 private:
  friend class MonitorOps;

  // Neither the adaptive skip nor the per-section capacity break: the
  // wait-restart loop would make consecutive-section counting meaningless.
  static constexpr TxSiteTraits kTraits{/*adaptive=*/false,
                                        /*capacity_break=*/false};
  /// Delay of one busy-wait "wait" (Listing 6).
  static constexpr Cycles kBusyWaitSpin = 400;

  /// One pass of a monitor body, as run_elided's Section. A pass ends in a
  /// commit (transactional or under the mutex) or in a wait; `pending` holds
  /// the deferred signals of the last body that ran to its end, which is the
  /// one that committed.
  template <typename F>
  struct Section {
    std::array<FutexMutex*, 1> locks;
    TxMonitor& mon;
    F& body;
    std::vector<MonitorOps::PendingSignal> pending = {};
    bool waited = false;
    detail::WaitToken token = {};

    /// Run the body once; false when it waited. Each run owns its
    /// MonitorOps, so an aborted attempt's deferred signals die with it.
    bool run(Context& c, bool transactional) {
      MonitorOps ops(mon, c, transactional);
      try {
        body(ops);
      } catch (const detail::WaitToken& w) {
        waited = true;
        token = w;
        return false;
      }
      pending = std::move(ops.pending_);
      return true;
    }

    // kTsxCond / kTsxBusyWait: wait() commits the (read-only) prefix itself
    // before throwing its WaitToken.
    bool run_tx(Context& c) { return run(c, /*transactional=*/true); }

    // kTsxAbort uses the paper's *generic* Section 3 retry policy: the
    // fallback handler counts failed attempts without decoding the abort
    // reason, so a condition-variable abort is retried like any other —
    // re-executing the whole section and aborting again, up to the attempt
    // budget. This wasted work is precisely why tsx.abort "drops
    // drastically on netferret" (Section 6.2). It is monitor semantics, not
    // retry policy, but it still burns an attempt and is recorded as a
    // decision so the per-site counts keep reconciling with tx_aborts.
    static bool own_retry(const sim::TxAbort& a) {
      return a.cause == sim::AbortCause::kExplicit &&
             a.code == kAbortCodeCondVar;
    }

    // The slice closes before the release (the body may also end in a
    // wait, which then sleeps after the release).
    void fallback(Context& c, sim::Telemetry* tel) {
      mon.mutex_.acquire(c);
      FallbackSlice slice(c, tel);
      slice.run([&] { run(c, /*transactional=*/false); });
      slice.close();
      mon.mutex_.release(c);
    }
  };

  void do_wait(Context& c, const detail::WaitToken& w) {
    Context::LockWaitScope wait(c);
    if (scheme_ == MonitorScheme::kMutexBusyWait ||
        scheme_ == MonitorScheme::kTsxBusyWait) {
      c.compute(kBusyWaitSpin);
    } else {
      c.futex_wait(w.seq_addr, w.captured_seq);
    }
  }

  void flush_signals(Context& c,
                     const std::vector<MonitorOps::PendingSignal>& pending);

  MonitorScheme scheme_;
  FutexMutex mutex_;
  ElisionStats stats_;
  std::shared_ptr<TxPolicy> brain_;
};

inline void MonitorOps::wait(CondVar& cv) {
  switch (mon_.scheme_) {
    case MonitorScheme::kMutex: {
      // Lock is held: capturing the sequence then releasing is atomic
      // enough (pthread_cond_wait semantics).
      detail::WaitToken w{cv.seq().addr(), cv.seq().load(c_)};
      throw w;
    }
    case MonitorScheme::kMutexBusyWait:
      throw detail::WaitToken{};
    case MonitorScheme::kTsxAbort:
      if (transactional_ && c_.in_txn()) c_.xabort(kAbortCodeCondVar);
      {
        // Fallback path (lock held): behave like kMutex.
        detail::WaitToken w{cv.seq().addr(), cv.seq().load(c_)};
        throw w;
      }
    case MonitorScheme::kTsxCond: {
      // §6.1: commit partial results, then sleep on the futex. The sequence
      // is captured transactionally (subscribed) before the commit, so a
      // wakeup between commit and FUTEX_WAIT is detected by value mismatch.
      detail::WaitToken w{cv.seq().addr(), cv.seq().load(c_)};
      if (c_.in_txn()) c_.xend();
      throw w;
    }
    case MonitorScheme::kTsxBusyWait: {
      if (c_.in_txn()) c_.xend();
      throw detail::WaitToken{};
    }
  }
  throw sim::SimError("unreachable: unknown monitor scheme");
}

inline void TxMonitor::flush_signals(
    Context& c, const std::vector<MonitorOps::PendingSignal>& pending) {
  for (const MonitorOps::PendingSignal& s : pending) {
    // Bump the sequence and wake; both outside any transaction.
    c.fetch_add(s.seq_addr, 1, 4);
    c.futex_wake(s.seq_addr, s.count);
  }
}

inline void MonitorOps::queue_signal(CondVar& cv, int count) {
  switch (mon_.scheme_) {
    case MonitorScheme::kMutex:
      cv.seq().fetch_add(c_, 1);
      c_.futex_wake(cv.seq().addr(), count);
      return;
    case MonitorScheme::kMutexBusyWait:
    case MonitorScheme::kTsxBusyWait:
      // Busy waiters poll the monitor state; no futex involved. The paper
      // notes this trades wasted cycles for latency (Section 6.2).
      return;
    case MonitorScheme::kTsxAbort:
      if (transactional_ && c_.in_txn()) {
        // pthread_cond_signal may enter the kernel; the transactional
        // execution cannot survive it (Section 6.1).
        c_.xabort(kAbortCodeCondVar);
      }
      cv.seq().fetch_add(c_, 1);
      c_.futex_wake(cv.seq().addr(), count);
      return;
    case MonitorScheme::kTsxCond:
      if (transactional_ && c_.in_txn()) {
        // Register the §6.1 commit callback.
        pending_.push_back({cv.seq().addr(), count});
      } else {
        cv.seq().fetch_add(c_, 1);
        c_.futex_wake(cv.seq().addr(), count);
      }
      return;
  }
  throw sim::SimError("unreachable: unknown monitor scheme");
}

}  // namespace tsxhpc::sync
