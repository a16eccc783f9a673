// Simulated Linux futex. The paper's transactional-execution-aware condition
// variable (Section 6.1, after Dudnik & Swift) is built on futexes because
// they do not require holding a lock; we model the same kernel interface.
#pragma once

#include <deque>
#include <unordered_map>

#include "sim/telemetry.h"
#include "sim/types.h"

namespace tsxhpc::sim {

/// Wait queues keyed by futex word address. All operations are performed by
/// the scheduler-token holder, so they are atomic with respect to simulated
/// threads (exactly like the kernel's hashed-bucket spinlocks make real
/// futex ops atomic).
class FutexTable {
 public:
  void enqueue(Addr addr, ThreadId t) {
    waiters_[addr].push_back(t);
    if (tel_) tel_->on_futex_wait(addr);
  }

  /// Pop up to `count` waiters, in FIFO order.
  template <typename WakeFn>
  int wake(Addr addr, int count, WakeFn&& fn) {
    auto it = waiters_.find(addr);
    if (it == waiters_.end()) return 0;
    int n = 0;
    while (n < count && !it->second.empty()) {
      ThreadId t = it->second.front();
      it->second.pop_front();
      if (tel_) tel_->on_futex_wake(addr);
      fn(t);
      ++n;
    }
    if (it->second.empty()) waiters_.erase(it);
    return n;
  }

  /// Telemetry sink for wait-queue events (null = off). Not owned.
  void set_telemetry(Telemetry* tel) { tel_ = tel; }

  /// Drop all waiters (run teardown after an error).
  void clear() { waiters_.clear(); }

 private:
  std::unordered_map<Addr, std::deque<ThreadId>> waiters_;
  Telemetry* tel_ = nullptr;
};

}  // namespace tsxhpc::sim
