// FiberBackend: every simulated hardware thread is a stackful fiber, all
// multiplexed on the ONE host thread that called Engine::run. A token
// handoff is a userspace context switch — no mutex, no condition variable,
// no kernel involvement — which on a single-core host removes a futex
// round-trip from the simulator's hottest path (every virtual-time handoff).
//
// The switch itself is a minimal hand-rolled x86-64 swap (save the six
// callee-saved registers + rsp, flip stacks, restore): the System V ABI
// makes everything else caller-saved, and the compiler already spilled
// those around the call. Other architectures fall back to ucontext
// (swapcontext), which is portable but pays a sigprocmask syscall per
// switch.
//
// Determinism: the engine makes identical scheduling decisions on every
// backend; fibers only change the transfer mechanism. Exceptions stay
// fiber-local — the engine's thread_main catches everything before the
// fiber exits, and unwinding never crosses a switch frame.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "sim/backend_impl.h"
#include "sim/types.h"

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

// The Itanium C++ ABI keeps per-thread exception-handling state (the
// caught-exception stack and the uncaught count) in __cxa_eh_globals. It is
// per HOST thread, while our fibers interleave freely — a fiber can suspend
// inside a catch block (monitors futex-wait from one) and another fiber can
// throw/catch meanwhile. Without isolation, the resumed fiber's
// __cxa_end_catch would pop the OTHER fiber's exception. So each fiber
// carries its own copy of the (pointer + unsigned, zero-initialized for a
// fresh thread) globals, swapped at every context switch — the same
// technique Boost.Context and folly::fibers use.
namespace __cxxabiv1 {
struct __cxa_eh_globals;
extern "C" __cxa_eh_globals* __cxa_get_globals() noexcept;
}  // namespace __cxxabiv1

namespace tsxhpc::sim {
namespace {

class FiberBackend;

/// Start-of-fiber handshake: set immediately before the first switch into a
/// fiber, read once at its entry point. thread_local so a fiber machine
/// nested inside a thread-backend machine stays correct.
thread_local FiberBackend* g_starting = nullptr;

}  // namespace

#if defined(__x86_64__)

extern "C" {
/// Save callee-saved registers + rsp into *save_sp, switch to restore_sp,
/// restore, return on the new stack. Defined in the asm block below.
void tsxhpc_ctx_swap(void** save_sp, void* restore_sp);
/// Entry point every new fiber "returns" into (see make_start_stack).
void tsxhpc_fiber_entry();
}

asm(R"(
  .text
  .globl tsxhpc_ctx_swap
  .type tsxhpc_ctx_swap, @function
tsxhpc_ctx_swap:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size tsxhpc_ctx_swap, .-tsxhpc_ctx_swap
)");

#endif  // __x86_64__

namespace {

class FiberBackend final : public ExecutionBackend {
 public:
  explicit FiberBackend(std::size_t stack_bytes)
      : stack_bytes_(stack_bytes < kMinStack ? kMinStack : stack_bytes) {}

  void run(int n, const std::function<void(ThreadId)>& body,
           ThreadId first) override {
    body_ = &body;
    fibers_.clear();
    fibers_.resize(n);
    switch_from_driver(first);
    // All fibers have exited (the last one switched back here); release
    // their stacks. The saved contexts pointing into them are dead.
    fibers_.clear();
    body_ = nullptr;
  }

  void transfer(ThreadId from, ThreadId to) override {
    prepare(to);
    swap_eh(fibers_[from].eh_state, fibers_[to].eh_state);
#if defined(__x86_64__)
    tsxhpc_ctx_swap(&fibers_[from].sp, fibers_[to].sp);
#else
    swapcontext(&fibers_[from].ctx, &fibers_[to].ctx);
#endif
  }

  void exit_transfer(ThreadId from, ThreadId to) override {
    if (to >= 0) {
      transfer(from, to);  // saved context is simply never resumed
    } else {
      swap_eh(fibers_[from].eh_state, driver_eh_);
#if defined(__x86_64__)
      tsxhpc_ctx_swap(&fibers_[from].sp, driver_sp_);
#else
      swapcontext(&fibers_[from].ctx, &driver_ctx_);
#endif
    }
  }

  /// Called from the entry shim: run the body of the fiber being started.
  void fiber_main() {
    const ThreadId t = start_tid_;
    (*body_)(t);
    // The engine's thread_main ends in exit_transfer and never returns
    // here; reaching this point means the token discipline was violated.
    std::abort();
  }

 private:
  static constexpr std::size_t kMinStack = 16 * 1024;
  /// Size of __cxa_eh_globals: a __cxa_exception* plus an unsigned count
  /// (padded). Copying by size keeps the struct opaque.
  static constexpr std::size_t kEhBytes = 2 * sizeof(void*);

  struct Fiber {
    // Default-initialized (not zeroed) stack, allocated on first start.
    std::unique_ptr<unsigned char[]> stack;
#if defined(__x86_64__)
    void* sp = nullptr;
#else
    ucontext_t ctx{};
#endif
    bool started = false;
    // Zero = "no exceptions in flight", the state of a fresh thread.
    unsigned char eh_state[kEhBytes] = {};
  };

  /// Park the outgoing context's EH globals and install the incoming ones.
  static void swap_eh(unsigned char* save, const unsigned char* restore) {
    void* g = static_cast<void*>(__cxxabiv1::__cxa_get_globals());
    std::memcpy(save, g, kEhBytes);
    std::memcpy(g, restore, kEhBytes);
  }

  void switch_from_driver(ThreadId first) {
    prepare(first);
    swap_eh(driver_eh_, fibers_[first].eh_state);
#if defined(__x86_64__)
    tsxhpc_ctx_swap(&driver_sp_, fibers_[first].sp);
#else
    swapcontext(&driver_ctx_, &fibers_[first].ctx);
#endif
  }

  /// Lay out `to`'s stack for its first activation, if it has none yet,
  /// and arm the start handshake. Always called immediately before the
  /// switch into `to`, so the handshake cannot be clobbered in between.
  void prepare(ThreadId to) {
    Fiber& f = fibers_[to];
    if (f.started) return;
    if (!f.stack) f.stack.reset(new unsigned char[stack_bytes_]);
#if defined(__x86_64__)
    // Frame for the initial "return" into tsxhpc_fiber_entry. The entry
    // address sits at a 16-byte-aligned slot so that after the six restore
    // pops and the ret, rsp % 16 == 8 — exactly the ABI state at a normal
    // function entry. Below it, six zeroed register slots (rbp = 0
    // terminates backtraces).
    auto top = reinterpret_cast<std::uintptr_t>(f.stack.get()) + stack_bytes_;
    std::uintptr_t entry_slot = (top - 64) & ~static_cast<std::uintptr_t>(15);
    auto* frame = reinterpret_cast<void**>(entry_slot);
    frame[0] = reinterpret_cast<void*>(&tsxhpc_fiber_entry);
    for (int i = 1; i <= 6; ++i) frame[-i] = nullptr;
    f.sp = frame - 6;
#else
    getcontext(&f.ctx);
    f.ctx.uc_stack.ss_sp = f.stack.get();
    f.ctx.uc_stack.ss_size = stack_bytes_;
    f.ctx.uc_link = &driver_ctx_;
    makecontext(&f.ctx, reinterpret_cast<void (*)()>(&fiber_entry_shim), 0);
#endif
    f.started = true;
    start_tid_ = to;
    g_starting = this;
  }

#if !defined(__x86_64__)
  static void fiber_entry_shim() {
    FiberBackend* self = g_starting;
    g_starting = nullptr;
    self->fiber_main();
  }
  ucontext_t driver_ctx_{};
#else
  void* driver_sp_ = nullptr;
#endif
  unsigned char driver_eh_[kEhBytes] = {};

  std::size_t stack_bytes_;
  std::vector<Fiber> fibers_;
  const std::function<void(ThreadId)>* body_ = nullptr;
  ThreadId start_tid_ = -1;
};

}  // namespace

#if defined(__x86_64__)
extern "C" void tsxhpc_fiber_entry() {
  FiberBackend* self = g_starting;
  g_starting = nullptr;
  self->fiber_main();
}
#endif

namespace detail {
std::unique_ptr<ExecutionBackend> make_fiber_backend(std::size_t stack_bytes) {
  return std::make_unique<FiberBackend>(stack_bytes);
}
}  // namespace detail

}  // namespace tsxhpc::sim
