// ThreadBackend: one OS thread per simulated hardware thread, token handoff
// via mutex + condition variable. This is the engine's original execution
// mechanism, preserved verbatim behind the ExecutionBackend seam so the
// fiber backend can be differentially tested against it: both must yield
// the same interleaving, telemetry artifact and makespan.
//
// Memory-ordering note: engine state (clocks, states, deadline) is only
// ever touched by the worker that holds the token. Each handoff goes
// through mu_, so the predecessor's writes happen-before the successor's
// reads — the engine itself needs no lock.
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/backend_impl.h"

namespace tsxhpc::sim {
namespace {

class ThreadBackend final : public ExecutionBackend {
 public:
  void run(int n, const std::function<void(ThreadId)>& body,
           ThreadId first) override {
    cvs_ = std::vector<std::condition_variable>(n);
    running_ = kNobody;

    std::vector<std::thread> threads;
    threads.reserve(n);
    for (ThreadId t = 0; t < n; ++t) {
      threads.emplace_back([this, t, &body] {
        {
          std::unique_lock<std::mutex> lk(mu_);
          cvs_[t].wait(lk, [&] { return running_ == t; });
        }
        body(t);
      });
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      running_ = first;
      cvs_[first].notify_one();
    }
    for (auto& th : threads) th.join();
  }

  void transfer(ThreadId from, ThreadId to) override {
    std::unique_lock<std::mutex> lk(mu_);
    running_ = to;
    cvs_[to].notify_one();
    cvs_[from].wait(lk, [&] { return running_ == from; });
  }

  void exit_transfer(ThreadId from, ThreadId to) override {
    (void)from;
    std::lock_guard<std::mutex> lk(mu_);
    running_ = to >= 0 ? to : kNobody;
    if (to >= 0) cvs_[to].notify_one();
  }

 private:
  static constexpr ThreadId kNobody = -2;

  std::mutex mu_;
  std::vector<std::condition_variable> cvs_;
  ThreadId running_ = kNobody;
};

}  // namespace

namespace detail {
std::unique_ptr<ExecutionBackend> make_thread_backend() {
  return std::make_unique<ThreadBackend>();
}
}  // namespace detail

}  // namespace tsxhpc::sim
