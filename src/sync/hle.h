// Hardware Lock Elision — the paper's *other* software interface (Section
// 2): XACQUIRE/XRELEASE-prefixed lock operations. Legacy-compatible: on
// hardware without TSX the prefixes are ignored and the code is an ordinary
// lock. On TSX hardware the XACQUIRE'd write to the lock word is elided
// (the lock is only added to the read set), the critical section runs
// transactionally, and the XRELEASE'd restoring write commits it.
//
// Unlike the RTM interface there is no software fallback handler or retry
// policy: hardware retries the elision ONCE at most (implementation
// behaviour of the first TSX parts); on a second failure the lock is
// acquired for real. That fixed policy is exactly why the paper's library
// uses the more flexible RTM interface (Section 3).
//
// Accordingly this lock does NOT run through run_elided() and is not a
// TxPolicy consumer: the hardwired try-once-then-acquire below models
// hardware behaviour, so --policy= has no effect on it. It shares only the
// flat-nesting path and the timed fallback slice with the RTM primitives.
#pragma once

#include "sim/context.h"
#include "sync/elision.h"
#include "sync/locks.h"

namespace tsxhpc::sync {

class HleLock {
 public:
  explicit HleLock(Machine& m) : lock_(m) {}

  /// Execute `f` as an XACQUIRE/XRELEASE critical section. Same abort
  /// semantics as ElidedLock::critical (the body may re-execute).
  template <typename F>
  void critical(Context& c, F&& f) {
    if (c.in_txn()) {
      run_flat_nested(c, lock_.word(), f);
      return;
    }
    sim::Telemetry* tel = c.machine().telemetry();
    if (tel) {
      tel->section_enter(c.tid(), lock_.word().addr(), sim::LockKind::kHle);
    }
    // Hardware policy: one elision attempt, one retry, then the real lock.
    for (int attempt = 0; attempt < 2; ++attempt) {
      try {
        c.xbegin();
        // XACQUIRE semantics: the lock write is suppressed; the word is
        // merely read (added to the read set). A held lock means a real
        // owner exists: abort and do not elide.
        if (lock_.word().load(c) != 0) c.xabort(kAbortCodeLockBusy);
        f();
        c.xend();  // XRELEASE: the restoring write commits the elision
        elided_++;
        if (tel) tel->section_commit(c.tid());
        return;
      } catch (const sim::TxAbort& a) {
        aborts_++;
        if (a.cause == sim::AbortCause::kExplicit &&
            a.code == kAbortCodeLockBusy) {
          Context::LockWaitScope wait(c);
          while (lock_.word().load(c) != 0) c.compute(80);
          continue;
        }
        if (!retry_may_succeed(a.cause)) break;
      }
    }
    acquired_++;
    lock_.acquire(c);
    FallbackSlice slice(c, tel);
    slice.run(f);
    lock_.release(c);
    slice.close();
  }

  SpinLock& underlying() { return lock_; }
  std::uint64_t elided() const { return elided_; }
  std::uint64_t acquired() const { return acquired_; }
  std::uint64_t aborts() const { return aborts_; }

 private:
  SpinLock lock_;
  std::uint64_t elided_ = 0;
  std::uint64_t acquired_ = 0;
  std::uint64_t aborts_ = 0;
};

}  // namespace tsxhpc::sync
