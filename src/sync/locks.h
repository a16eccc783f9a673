// Baseline synchronization primitives, all built on simulated shared memory
// so their contention behaviour (cache-line bouncing, futex syscalls) is
// modeled rather than assumed.
#pragma once

#include <cstdint>

#include "sim/context.h"
#include "sim/machine.h"
#include "sim/shared.h"
#include "sim/telemetry.h"

namespace tsxhpc::sync {

using sim::Context;
using sim::Cycles;
using sim::Machine;

/// Test-and-test-and-set spinlock with bounded exponential backoff. This is
/// the lock the TM libraries' "sgl" mode and the elision wrappers guard.
class SpinLock {
 public:
  SpinLock() = default;
  explicit SpinLock(Machine& m)
      : word_(sim::Shared<std::uint32_t>::alloc(m, {.name = "lock/spin"}, 0)) {}

  void acquire(Context& c) {
    sim::Telemetry* tel = c.machine().telemetry();
    const Cycles t0 = tel ? c.now() : 0;
    bool contended = false;
    Cycles backoff = 40;
    {
      Context::LockWaitScope wait(c);
      for (;;) {
        if (word_.load(c) == 0 && word_.cas(c, 0, 1)) break;
        contended = true;
        c.compute(backoff);
        if (backoff < 2000) backoff *= 2;
      }
    }
    if (tel) {
      tel->on_lock_acquired(word_.addr(), sim::LockKind::kSpin, c.tid(), t0,
                            c.now(), contended);
    }
  }

  /// Non-blocking acquisition attempt (omp_test_lock analogue).
  bool try_acquire(Context& c) {
    if (word_.load(c) != 0 || !word_.cas(c, 0, 1)) return false;
    if (sim::Telemetry* tel = c.machine().telemetry()) {
      tel->on_lock_acquired(word_.addr(), sim::LockKind::kSpin, c.tid(),
                            c.now(), c.now(), false);
    }
    return true;
  }

  void release(Context& c) {
    sim::Telemetry* tel = c.machine().telemetry();
    const Cycles t0 = tel ? c.now() : 0;
    word_.store(c, 0);
    if (tel) tel->on_lock_released(word_.addr(), c.tid(), t0);
  }

  /// Lock-word handle, used by elision to subscribe to the lock.
  sim::Shared<std::uint32_t> word() const { return word_; }

 private:
  sim::Shared<std::uint32_t> word_;
};

/// FIFO ticket lock; used where fairness matters in baselines.
class TicketLock {
 public:
  TicketLock() = default;
  explicit TicketLock(Machine& m)
      : next_(sim::Shared<std::uint32_t>::alloc(m, {.name = "lock/ticket"}, 0)),
        serving_(
            sim::Shared<std::uint32_t>::alloc(m, {.name = "lock/ticket"}, 0)) {}

  void acquire(Context& c) {
    sim::Telemetry* tel = c.machine().telemetry();
    const Cycles t0 = tel ? c.now() : 0;
    const std::uint32_t my = next_.fetch_add(c, 1);
    bool contended = false;
    {
      Context::LockWaitScope wait(c);
      while (serving_.load(c) != my) {
        contended = true;
        c.compute(60);
      }
    }
    if (tel) {
      tel->on_lock_acquired(next_.addr(), sim::LockKind::kTicket, c.tid(), t0,
                            c.now(), contended);
    }
  }

  void release(Context& c) {
    sim::Telemetry* tel = c.machine().telemetry();
    const Cycles t0 = tel ? c.now() : 0;
    serving_.fetch_add(c, 1);
    if (tel) tel->on_lock_released(next_.addr(), c.tid(), t0);
  }

 private:
  sim::Shared<std::uint32_t> next_;
  sim::Shared<std::uint32_t> serving_;
};

/// Futex-blocking mutex, glibc style (0 = free, 1 = locked, 2 = locked with
/// waiters). This is the model of pthread_mutex in the TCP/IP stack study.
class FutexMutex {
 public:
  FutexMutex() = default;
  explicit FutexMutex(Machine& m)
      : word_(sim::Shared<std::uint32_t>::alloc(m, {.name = "lock/futex"}, 0)) {}

  void acquire(Context& c) {
    sim::Telemetry* tel = c.machine().telemetry();
    const Cycles t0 = tel ? c.now() : 0;
    bool contended = false;
    bool got = false;
    if (word_.cas(c, 0, 1)) {  // uncontended fast path
      got = true;
    } else {
      contended = true;
      Context::LockWaitScope wait(c);
      // Adaptive phase (PTHREAD_MUTEX_ADAPTIVE_NP-style): spin briefly before
      // committing to a kernel sleep — short critical sections usually free
      // the lock within a few hundred cycles.
      for (int spin = 0; spin < 10 && !got; ++spin) {
        c.compute(90);
        if (word_.load(c) == 0 && word_.cas(c, 0, 1)) got = true;
      }
      if (!got) {
        do {
          // Mark contended (even if we raced with release) and sleep.
          std::uint32_t v = word_.load(c);
          if (v == 2 || (v == 1 && word_.cas(c, 1, 2))) {
            c.futex_wait(word_.addr(), 2);
          }
        } while (word_.exchange(c, 2) != 0);
      }
    }
    if (tel) {
      tel->on_lock_acquired(word_.addr(), sim::LockKind::kFutex, c.tid(), t0,
                            c.now(), contended);
    }
  }

  bool try_acquire(Context& c) {
    if (!word_.cas(c, 0, 1)) return false;
    if (sim::Telemetry* tel = c.machine().telemetry()) {
      tel->on_lock_acquired(word_.addr(), sim::LockKind::kFutex, c.tid(),
                            c.now(), c.now(), false);
    }
    return true;
  }

  void release(Context& c) {
    sim::Telemetry* tel = c.machine().telemetry();
    const Cycles t0 = tel ? c.now() : 0;
    if (word_.exchange(c, 0) == 2) {
      c.futex_wake(word_.addr(), 1);
    }
    if (tel) tel->on_lock_released(word_.addr(), c.tid(), t0);
  }

  sim::Shared<std::uint32_t> word() const { return word_; }

 private:
  sim::Shared<std::uint32_t> word_;
};

/// Sense-reversing centralized barrier (spin + optional futex blocking).
class Barrier {
 public:
  Barrier() = default;
  Barrier(Machine& m, int parties, bool blocking = false)
      : parties_(parties),
        blocking_(blocking),
        arrived_(sim::Shared<std::uint32_t>::alloc(m, {.name = "barrier"}, 0)),
        sense_(sim::Shared<std::uint32_t>::alloc(m, {.name = "barrier"}, 0)) {}

  void wait(Context& c) {
    const std::uint32_t my_sense = sense_.load(c);
    if (arrived_.fetch_add(c, 1) + 1 == static_cast<std::uint32_t>(parties_)) {
      arrived_.store(c, 0);
      sense_.store(c, my_sense + 1);
      if (blocking_) c.futex_wake(sense_.addr(), parties_);
    } else if (blocking_) {
      Context::LockWaitScope wait(c);
      while (sense_.load(c) == my_sense) {
        c.futex_wait(sense_.addr(), my_sense);
      }
    } else {
      Context::LockWaitScope wait(c);
      while (sense_.load(c) == my_sense) c.compute(50);
    }
  }

 private:
  int parties_ = 0;
  bool blocking_ = false;
  sim::Shared<std::uint32_t> arrived_;
  sim::Shared<std::uint32_t> sense_;
};

/// RAII guard over any lock with acquire/release.
template <typename Lock>
class Guard {
 public:
  Guard(Context& c, Lock& l) : c_(c), l_(l) { l_.acquire(c_); }
  ~Guard() { l_.release(c_); }
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

 private:
  Context& c_;
  Lock& l_;
};

}  // namespace tsxhpc::sync
