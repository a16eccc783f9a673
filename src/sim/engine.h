// Deterministic virtual-time scheduler. Exactly one simulated thread
// executes at a time: the engine hands a token to the runnable thread with
// the minimum (virtual clock, thread id) pair. A thread keeps the token
// until its clock exceeds the next runnable thread's clock by the
// scheduling quantum. The interleaving is therefore a pure function of the
// program and the configuration — no host scheduling or wall-clock time
// ever leaks into results.
//
// The engine owns scheduling *policy* only; the mechanism that suspends and
// resumes simulated threads is a pluggable ExecutionBackend (sim/backend.h):
// cooperative fibers on one host thread (default) or one OS thread per
// simulated thread with condvar handoff. Both produce the same interleaving
// cycle for cycle.
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "sim/backend.h"
#include "sim/config.h"
#include "sim/types.h"

namespace tsxhpc::sim {

class Telemetry;
class EngineTestPeer;

class Engine {
 public:
  Engine(const MachineConfig& cfg, int num_threads);
  ~Engine();

  /// Run all thread bodies to completion. Body i executes as simulated
  /// thread i. Rethrows the first exception raised by any body.
  void run(const std::vector<std::function<void()>>& bodies);

  // --- Called from simulated threads while they hold the token ------------

  /// Advance t's virtual clock; may hand the token to another thread and
  /// return only when t is scheduled again. Inline: nearly every call stays
  /// within the quantum and returns at once.
  void advance(ThreadId t, Cycles cycles) {
    const Cycles now = clocks_[t] += cycles;
    if (now <= deadline_ && (cfg_.max_cycles == 0 || now <= cfg_.max_cycles) &&
        !stopping_) {
      return;
    }
    advance_slow(t);
  }

  /// Voluntarily reschedule even if within quantum (used at synchronization
  /// boundary points that need fine-grained interleaving).
  void yield_point(ThreadId t);

  /// Block t until some other thread calls wake(t). Hands off the token.
  void block(ThreadId t);

  /// Make t runnable again; its clock jumps forward to the waker's clock if
  /// it was behind. Usually called by the token holder; also safe with no
  /// token holder (current() < 0), where it forces the next dispatch to
  /// recompute its quantum deadline against the woken thread.
  void wake(ThreadId t, Cycles waker_clock);

  Cycles clock(ThreadId t) const { return clocks_[t]; }
  bool is_blocked(ThreadId t) const { return states_[t] == State::kBlocked; }
  int num_threads() const { return static_cast<int>(clocks_.size()); }

  /// Thread currently holding the token, or -1 if none.
  ThreadId current() const { return current_; }

  /// Makespan of the last run(): max end clock over all threads.
  Cycles makespan() const { return makespan_; }
  Cycles end_clock(ThreadId t) const { return end_clocks_[t]; }

  /// Telemetry sink for scheduler events (blocked intervals). Not owned.
  void set_telemetry(Telemetry* tel) { tel_ = tel; }

 private:
  friend class EngineTestPeer;

  enum class State { kNotStarted, kReady, kRunning, kBlocked, kDone };

  /// Thrown into a simulated thread when another thread failed and the run
  /// is being torn down. Not derived from std::exception on purpose so that
  /// workload catch blocks do not swallow it.
  struct EngineStop {};

  /// Per-thread driver the backend invokes: initial token wait, body, and
  /// deterministic completion/teardown handoff.
  void thread_main(ThreadId t);

  /// advance() past the quantum deadline or the max_cycles guard, or during
  /// teardown: check the guard, then reschedule.
  void advance_slow(ThreadId t);

  // All of the below execute with the token held (or, for run()'s
  // bookkeeping, with no simulated thread running); happens-before edges
  // across handoffs are the backend's responsibility.
  ThreadId pick_next(ThreadId exclude) const;
  ThreadId pick_any_live() const;
  void recompute_deadline(ThreadId running);
  /// Hand the token from t to next and wait until t is resumed; throws
  /// EngineStop on resume when the run is being torn down.
  void switch_from(ThreadId t, ThreadId next);
  /// Token-acquisition bookkeeping after a resume (or first activation).
  void on_resumed(ThreadId t);

  const MachineConfig& cfg_;
  std::unique_ptr<ExecutionBackend> backend_;
  std::vector<State> states_;
  std::vector<Cycles> clocks_;
  std::vector<Cycles> end_clocks_;
  const std::vector<std::function<void()>>* bodies_ = nullptr;
  ThreadId current_ = -1;
  Cycles deadline_ = 0;  // clock value at which the current thread must yield
  int alive_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
  Cycles makespan_ = 0;
  Telemetry* tel_ = nullptr;
};

}  // namespace tsxhpc::sim
