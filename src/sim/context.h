// Context: the per-simulated-thread execution handle. All timed work a
// workload performs — compute, shared loads/stores, atomics, RTM
// instructions, syscalls, futex — goes through this API.
#pragma once

#include <cstdint>

#include "sim/stats.h"
#include "sim/types.h"

namespace tsxhpc::sim {

class Machine;

class Context {
 public:
  Context(Machine& m, ThreadId tid) : m_(m), tid_(tid) {}

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  ThreadId tid() const { return tid_; }
  int num_threads() const;
  Machine& machine() { return m_; }
  Cycles now() const;

  /// Local (non-shared) computation: advance virtual time only.
  void compute(Cycles cycles);

  // --- Timed shared-memory accesses ---------------------------------------
  std::uint64_t load(Addr a, unsigned size = 8);
  void store(Addr a, std::uint64_t v, unsigned size = 8);

  /// LOCK-prefixed fetch-and-add; returns the *old* value.
  std::uint64_t fetch_add(Addr a, std::int64_t delta, unsigned size = 8);
  /// LOCK-prefixed compare-and-swap; returns success.
  bool cas(Addr a, std::uint64_t expected, std::uint64_t desired,
           unsigned size = 8);
  /// LOCK-prefixed exchange; returns the old value.
  std::uint64_t exchange(Addr a, std::uint64_t v, unsigned size = 8);
  /// LOCK-prefixed bitwise-or (used by lock-free algorithms).
  std::uint64_t fetch_or(Addr a, std::uint64_t bits, unsigned size = 8);

  /// Bulk copies, charged per cache line. Base and size must be 8-aligned.
  void load_bytes(Addr a, void* dst, std::size_t n);
  void store_bytes(Addr a, const void* src, std::size_t n);

  // --- Restricted Transactional Memory ------------------------------------
  /// XBEGIN. On abort, control returns to the retry loop *by throwing
  /// TxAbort* from whichever simulator call observed the abort condition —
  /// the software analogue of the hardware rolling back to the fallback ip.
  void xbegin();
  /// XEND: commit. Throws TxAbort if the transaction was doomed in flight.
  void xend();
  /// XABORT imm8.
  [[noreturn]] void xabort(std::uint8_t code);
  bool in_txn() const;

  /// Inter-retry backoff charged by the elision policy after an abort.
  /// Advances virtual time like compute(), but books the cycles into the
  /// kTxWasted bucket (and the backoff_cycles sub-counter): the delay exists
  /// only because a transaction aborted, so it is abort waste, not work or
  /// lock-hold contention. Must be called outside any transaction.
  void tx_backoff(Cycles cycles);

  // --- Kernel interaction ---------------------------------------------------
  /// Any system call. Inside a transaction this aborts it (Section 2:
  /// "instructions that may always abort (e.g., system calls)").
  void syscall(Cycles extra_cost = 0);

  /// futex(FUTEX_WAIT): blocks iff *addr == expected, else returns
  /// immediately (EAGAIN). Must not be called inside a transaction.
  void futex_wait(Addr addr, std::uint32_t expected);
  /// futex(FUTEX_WAKE): wakes up to `count` waiters, returns number woken.
  int futex_wake(Addr addr, int count);

  /// Cooperative fine-grain reschedule point (precise interleaving).
  void yield();

  ThreadStats& stats();

  // --- Cycle-accounting scopes ---------------------------------------------
  // While a scope is active, cycles the thread spends outside transactions
  // are classified as lock-wait (spinning for a lock) or serialized-fallback
  // (running a critical section under the fallback lock) instead of work.
  // Scopes nest; the sync layer opens them around spin loops and fallback
  // critical sections.
  class LockWaitScope {
   public:
    explicit LockWaitScope(Context& c) : c_(c) { c_.lock_wait_depth_++; }
    ~LockWaitScope() { c_.lock_wait_depth_--; }
    LockWaitScope(const LockWaitScope&) = delete;
    LockWaitScope& operator=(const LockWaitScope&) = delete;

   private:
    Context& c_;
  };
  class FallbackScope {
   public:
    explicit FallbackScope(Context& c) : c_(c) { c_.fallback_depth_++; }
    ~FallbackScope() { c_.fallback_depth_--; }
    FallbackScope(const FallbackScope&) = delete;
    FallbackScope& operator=(const FallbackScope&) = delete;

   private:
    Context& c_;
  };

 private:
  /// Roll back the live transaction with `cause`, account it as wasted,
  /// charge lat_abort and throw TxAbort{cause, code}.
  [[noreturn]] void abort_tx(AbortCause cause, std::uint8_t code = 0);
  /// If a remote conflict doomed our transaction, roll back and throw.
  void check_doom();
  /// Cycle-accounting / tracing hooks around transactional regions.
  void tx_account_start();
  void tx_account_end(bool committed, AbortCause cause,
                      std::uint32_t read_lines, std::uint32_t write_lines);

  /// Classify `c` cycles that were just charged to the clock. Inside a
  /// transaction the cycles accumulate in tx_pending_ and are flushed to
  /// kTxCommitted / kTxWasted when the outcome is known; outside, kWork and
  /// kMemStall defaults are overridden by an active lock-wait or fallback
  /// scope. Every Engine::advance in this class is paired with exactly one
  /// charge so the buckets sum to end_cycle.
  void charge(Cycles c, CycleBucket dflt);
  /// Memory-access latency: the L1-hit portion is work, the excess is stall,
  /// attributed to the hierarchy level that served the access (the per-level
  /// breakdown only counts stalls that actually land in kMemStall — cycles
  /// rerouted to lock-wait/fallback scopes are excluded the same way).
  void charge_mem(Cycles lat, MemLevel level);

  Machine& m_;
  ThreadId tid_;
  Cycles tx_start_clock_ = 0;
  Cycles tx_pending_ = 0;
  int lock_wait_depth_ = 0;
  int fallback_depth_ = 0;
};

}  // namespace tsxhpc::sim
