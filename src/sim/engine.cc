#include "sim/engine.h"

#include <algorithm>
#include <limits>

#include "sim/telemetry.h"

namespace tsxhpc::sim {

Engine::Engine(const MachineConfig& cfg, int num_threads)
    : cfg_(cfg),
      backend_(make_backend(cfg.backend, cfg.fiber_stack_bytes)),
      states_(num_threads, State::kNotStarted),
      clocks_(num_threads, 0),
      end_clocks_(num_threads, 0) {
  if (num_threads <= 0 || num_threads > cfg.num_hw_threads()) {
    throw SimError("thread count " + std::to_string(num_threads) +
                   " exceeds machine hardware threads (" +
                   std::to_string(cfg.num_hw_threads()) + ")");
  }
}

Engine::~Engine() = default;

ThreadId Engine::pick_next(ThreadId exclude) const {
  ThreadId best = -1;
  for (ThreadId t = 0; t < num_threads(); ++t) {
    if (t == exclude || states_[t] != State::kReady) continue;
    if (best < 0 || clocks_[t] < clocks_[best]) best = t;
  }
  return best;
}

ThreadId Engine::pick_any_live() const {
  for (ThreadId t = 0; t < num_threads(); ++t) {
    if (states_[t] != State::kDone) return t;
  }
  return -1;
}

void Engine::recompute_deadline(ThreadId running) {
  Cycles min_other = std::numeric_limits<Cycles>::max();
  for (ThreadId t = 0; t < num_threads(); ++t) {
    if (t == running || states_[t] != State::kReady) continue;
    min_other = std::min(min_other, clocks_[t]);
  }
  deadline_ = min_other == std::numeric_limits<Cycles>::max()
                  ? min_other
                  : min_other + cfg_.sched_quantum;
}

void Engine::on_resumed(ThreadId t) {
  if (stopping_) throw EngineStop{};
  states_[t] = State::kRunning;
  recompute_deadline(t);
}

void Engine::switch_from(ThreadId t, ThreadId next) {
  current_ = next;
  backend_->transfer(t, next);
  on_resumed(t);
}

void Engine::advance_slow(ThreadId t) {
  if (cfg_.max_cycles != 0 && clocks_[t] > cfg_.max_cycles && !stopping_) {
    throw SimError("thread " + std::to_string(t) +
                   " exceeded max_cycles (livelock guard)");
  }
  if (stopping_) {
    // Teardown: if this call came from a destructor unwinding an
    // EngineStop, swallowing it keeps the unwind alive; otherwise join the
    // teardown. (Throwing out of a destructor would std::terminate.)
    if (std::uncaught_exceptions() > 0) return;
    throw EngineStop{};
  }
  states_[t] = State::kReady;
  ThreadId next = pick_next(-1);
  if (next == t) {
    states_[t] = State::kRunning;
    recompute_deadline(t);
    return;
  }
  switch_from(t, next);
}

void Engine::yield_point(ThreadId t) {
  if (stopping_) {
    if (std::uncaught_exceptions() > 0) return;
    throw EngineStop{};
  }
  states_[t] = State::kReady;
  ThreadId next = pick_next(-1);
  if (next == t) {
    states_[t] = State::kRunning;
    recompute_deadline(t);
    return;
  }
  switch_from(t, next);
}

void Engine::block(ThreadId t) {
  if (stopping_) {
    // Teardown: nobody is left to wake us; returning immediately (a
    // spurious wake) lets unwinding destructors pass through safely.
    if (std::uncaught_exceptions() > 0) return;
    throw EngineStop{};
  }
  const Cycles blocked_at = clocks_[t];
  states_[t] = State::kBlocked;
  ThreadId next = pick_next(-1);
  if (next < 0) {
    // Every live thread is blocked: genuine deadlock.
    if (!first_error_) {
      first_error_ = std::make_exception_ptr(
          SimError("deadlock: all simulated threads are blocked"));
    }
    stopping_ = true;
    throw EngineStop{};
  }
  switch_from(t, next);
  // Report after resuming: wake() has already advanced our clock to the
  // waker's, so [blocked_at, now] is the full descheduled interval.
  if (tel_) tel_->on_blocked(t, blocked_at, clocks_[t]);
}

void Engine::wake(ThreadId t, Cycles waker_clock) {
  if (states_[t] != State::kBlocked) return;  // no waiter: wake is lost
  states_[t] = State::kReady;
  clocks_[t] = std::max(clocks_[t], waker_clock);
  if (current_ >= 0) {
    recompute_deadline(current_);
  } else {
    // No thread holds the token (a wake issued from the driver between
    // dispatches). The standing deadline predates t becoming runnable, so
    // the next scheduled thread could overrun its quantum against t; zero
    // it so the next dispatch recomputes.
    deadline_ = 0;
  }
}

void Engine::thread_main(ThreadId t) {
  try {
    on_resumed(t);  // waits for nothing: the backend activated us
    (*bodies_)[t]();
  } catch (EngineStop&) {
    // Torn down by another thread's failure (or a detected deadlock).
  } catch (...) {
    if (!first_error_) first_error_ = std::current_exception();
    stopping_ = true;
  }

  states_[t] = State::kDone;
  end_clocks_[t] = clocks_[t];
  alive_--;

  ThreadId next;
  if (stopping_) {
    // Teardown sweep: resume each remaining thread (in thread-id order, so
    // it is deterministic) to let it unwind its own stack — fibers must run
    // their destructors on their own stacks before the run can end.
    next = pick_any_live();
  } else {
    next = pick_next(-1);
    if (next < 0 && alive_ > 0) {
      // Remaining threads are all blocked and nobody can wake them.
      if (!first_error_) {
        first_error_ = std::make_exception_ptr(SimError(
            "deadlock: remaining simulated threads are all blocked"));
      }
      stopping_ = true;
      next = pick_any_live();
    }
  }
  current_ = next;
  backend_->exit_transfer(t, next);
  // Thread backend: exit_transfer returned; this worker must unwind without
  // touching engine state again. Fiber backend: never reached.
}

void Engine::run(const std::vector<std::function<void()>>& bodies) {
  if (static_cast<int>(bodies.size()) != num_threads()) {
    throw SimError("body count does not match engine thread count");
  }
  stopping_ = false;
  first_error_ = nullptr;
  alive_ = num_threads();
  for (ThreadId t = 0; t < num_threads(); ++t) {
    states_[t] = State::kReady;
    clocks_[t] = 0;
    end_clocks_[t] = 0;
  }
  bodies_ = &bodies;
  current_ = 0;
  deadline_ = 0;
  backend_->run(num_threads(), [this](ThreadId t) { thread_main(t); }, 0);
  bodies_ = nullptr;
  current_ = -1;

  makespan_ = *std::max_element(end_clocks_.begin(), end_clocks_.end());
  if (first_error_) std::rethrow_exception(first_error_);
}

}  // namespace tsxhpc::sim
