// Execution backends: the mechanism the Engine uses to multiplex simulated
// hardware threads onto the host. The Engine owns all scheduling *policy*
// (virtual clocks, quantum deadlines, deadlock detection, teardown); a
// backend provides only the *mechanism* — start N cooperative workers and
// transfer control between them such that exactly one executes at a time.
//
// Two implementations:
//   * FiberBackend  — every simulated thread is a stackful fiber (ucontext)
//     on ONE host thread; a token handoff is a userspace context switch.
//     This is the default: on a single-core host it removes a kernel futex
//     round-trip from every virtual-time handoff, the simulator's hottest
//     path.
//   * ThreadBackend — one OS thread per simulated thread, handoff via
//     mutex + condition variable (the original engine mechanism). Kept for
//     differential testing: both backends must produce byte-identical
//     telemetry artifacts and identical makespans.
//
// Contract (token discipline): at any instant at most one worker executes
// engine or workload code. `transfer(from, to)` suspends the caller until
// someone transfers control back to it. `exit_transfer(from, to)` hands
// control away for good; the caller must immediately return from its body
// without touching engine state if the call itself returns (it does on the
// thread backend, never on the fiber backend). All happens-before edges a
// worker needs are established by the transfer itself.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string_view>

#include "sim/types.h"

namespace tsxhpc::sim {

/// Which execution mechanism a Machine's engines use.
enum class BackendKind { kFiber, kThread };

const char* to_string(BackendKind k);

/// Parse "fiber" / "thread" into a BackendKind. Returns false (and leaves
/// `out` untouched) on anything else.
bool backend_from_string(std::string_view s, BackendKind& out);

/// Process-wide default backend: kFiber, overridable with the environment
/// variable TSXHPC_BACKEND=fiber|thread (read once). CI uses the override to
/// run the whole test suite under both mechanisms without rebuilding.
BackendKind default_backend();

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// Run `body(t)` for every t in [0, n). body(t) begins executing only when
  /// control is first transferred to t; control is initially given to
  /// `first`. Returns once every body has finished (i.e. after some worker
  /// called exit_transfer with to < 0). `body` must not let exceptions
  /// escape.
  virtual void run(int n, const std::function<void(ThreadId)>& body,
                   ThreadId first) = 0;

  /// Called by the running worker `from`: suspend it and resume `to`.
  /// Returns when control is next transferred back to `from`.
  virtual void transfer(ThreadId from, ThreadId to) = 0;

  /// Called by worker `from` when its body is finished: resume `to`, or
  /// return control to run()'s caller when to < 0. `from` is never resumed
  /// again; if this call returns (thread backend), the body must return
  /// immediately.
  virtual void exit_transfer(ThreadId from, ThreadId to) = 0;
};

/// Factory. `fiber_stack_bytes` sizes each fiber's stack (ignored by the
/// thread backend).
std::unique_ptr<ExecutionBackend> make_backend(BackendKind kind,
                                               std::size_t fiber_stack_bytes);

}  // namespace tsxhpc::sim
