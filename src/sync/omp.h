// A small OpenMP-flavoured compatibility layer over the simulator, so code
// from the paper's listings ports almost verbatim:
//
//   #pragma omp parallel for       ->  omp::parallel_for(m, threads, ...)
//   #pragma omp atomic             ->  omp::atomic_add(ctx, cell, v)
//   #pragma omp critical           ->  omp::Critical (one global lock)
//   omp_lock_t / omp_set_lock /
//   omp_test_lock / omp_unset_lock ->  omp::Lock (per-object lock)
//
// The locks can be swapped wholesale for TSX elision via omp::Critical's
// `elide` flag — the "changes limited to the synchronization library"
// property the paper demonstrates (Section 3).
#pragma once

#include <functional>

#include "sim/machine.h"
#include "sim/shared.h"
#include "sync/elision.h"
#include "sync/locks.h"

namespace tsxhpc::omp {

using sim::Context;
using sim::Machine;

/// omp_lock_t analogue. `omp_test_lock` really is a try-lock (the paper's
/// footnote 2 points at the OpenMP spec for this).
class Lock {
 public:
  Lock() = default;
  explicit Lock(Machine& m) : lock_(m) {}

  void set(Context& c) { lock_.acquire(c); }      // omp_set_lock
  bool test(Context& c) { return lock_.try_acquire(c); }  // omp_test_lock
  void unset(Context& c) { lock_.release(c); }    // omp_unset_lock

  sync::SpinLock& underlying() { return lock_; }

 private:
  sync::SpinLock lock_;
};

/// #pragma omp critical — one process-wide named lock, optionally elided.
/// Elided sections delegate to ElidedLock::critical, so the shim consumes
/// the machine's TxPolicy (retry/backoff/fallback and the adaptive skip)
/// through that one path — it has no retry loop of its own.
class Critical {
 public:
  explicit Critical(Machine& m, bool elide = false,
                    sync::ElisionPolicy policy = {})
      : elide_(elide), lock_(m, policy) {}

  template <typename F>
  void run(Context& c, F&& f) {
    if (elide_) {
      lock_.critical(c, std::forward<F>(f));
    } else {
      sync::SpinLock& l = lock_.underlying();
      l.acquire(c);
      f();
      l.release(c);
    }
  }

  const sync::ElisionStats& stats() const { return lock_.stats(); }

 private:
  bool elide_ = false;
  sync::ElidedLock lock_;
};

/// #pragma omp atomic for integral cells.
template <typename T>
void atomic_add(Context& c, sim::Shared<T> cell, T v) {
  if constexpr (std::is_floating_point_v<T>) {
    cell.atomic_add(c, v);  // CMPXCHG loop, as the compiler emits
  } else {
    cell.fetch_add(c, v);
  }
}

/// Schedule kinds for parallel_for.
enum class Schedule { kStatic, kDynamic };

/// #pragma omp parallel for over [0, n). `body(ctx, i)` runs for each index.
/// kStatic gives each thread one contiguous block; kDynamic hands out
/// chunks through a shared counter.
template <typename Body>
void parallel_for(Machine& m, int threads, std::size_t n, Body&& body,
                  Schedule schedule = Schedule::kStatic,
                  std::size_t chunk = 8) {
  if (schedule == Schedule::kStatic) {
    m.run({.threads = threads, .body = [&](Context& c) {
      const std::size_t per = (n + threads - 1) / threads;
      const std::size_t i0 = c.tid() * per;
      const std::size_t i1 = std::min(n, i0 + per);
      for (std::size_t i = i0; i < i1; ++i) body(c, i);
    }});
    return;
  }
  auto next = sim::Shared<std::uint64_t>::alloc(m, 0);
  m.run({.threads = threads, .body = [&](Context& c) {
    for (;;) {
      const std::uint64_t b = next.fetch_add(c, chunk);
      if (b >= n) break;
      const std::uint64_t e = std::min<std::uint64_t>(b + chunk, n);
      for (std::uint64_t i = b; i < e; ++i) body(c, i);
    }
  }});
}

}  // namespace tsxhpc::omp
