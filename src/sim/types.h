// Fundamental value types shared across the simulator.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace tsxhpc::sim {

/// Virtual address inside the simulated shared heap.
using Addr = std::uint64_t;

/// Simulated processor cycles.
using Cycles = std::uint64_t;

/// Hardware-thread identifier (0 .. num_hw_threads-1). Thread t runs on core
/// t / smt_per_core when the default affinity policy ("fill cores first") is
/// in effect; see MachineConfig::core_of().
using ThreadId = int;

/// Bitmask over hardware threads (bit t = thread t). 64 bits caps the
/// simulated machine at 64 hardware threads; MemorySystem validates the
/// configured topology against it.
using ThreadMask = std::uint64_t;

/// Bitmask over cores (bit c = core c); same 64-entry cap as ThreadMask.
using CoreMask = std::uint64_t;

inline constexpr Addr kNullAddr = 0;

/// Fatal, non-recoverable simulator error (API misuse, deadlock, timeout).
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

/// An impossible machine shape (cache geometry, topology), thrown only while
/// a Machine is built, so a front end can report it as a usage error.
class ConfigError : public SimError {
 public:
  using SimError::SimError;
};

/// Why a hardware transaction aborted. Mirrors the abort-cause information
/// Haswell reports via EAX / perf events (tx-abort, capacity, conflict, ...).
enum class AbortCause : std::uint8_t {
  kNone = 0,
  kConflict,        // data conflict with another thread (requester-wins)
  kCapacityWrite,   // transactionally written line evicted from the L1D
                    // (or back-invalidated by an LLC eviction — inclusion)
  kExplicit,        // XABORT executed (e.g. lock observed held)
  kSyscall,         // system call / IO attempted inside a transaction
  kNesting,         // nesting depth limit exceeded
  kLockBusy,        // convenience alias used by elision: lock word was held
  kCapacityRead,    // evicted *read* line lost by the secondary tracker;
                    // probabilistic, so a retry may well succeed
  kNumCauses,
};

const char* to_string(AbortCause cause);

/// Which level of the memory hierarchy served a timed access. Used for
/// latency selection and for attributing the beyond-L1 stall cycles of an
/// access to the level that produced them (telemetry "mem_stall_levels").
enum class MemLevel : std::uint8_t {
  kL1 = 0,  // hit in the core's own L1D
  kXfer,    // line forwarded from another core's L1 (clean or dirty)
  kLlc,     // hit in the shared last-level cache
  kDram,    // LLC miss, served by memory
  kNumLevels,
};

const char* to_string(MemLevel level);

/// Control-flow exception implementing the RTM abort "longjmp" back to the
/// XBEGIN point. Thrown by the simulator whenever the current transaction
/// aborts; caught by the retry loop in the synchronization library (or by
/// Context::with_txn in tests). Workload code inside a transactional lambda
/// must be exception safe: treat this like a hardware rollback.
struct TxAbort {
  AbortCause cause = AbortCause::kNone;
  std::uint8_t code = 0;  // XABORT imm8, when cause == kExplicit
  /// True when the conflicting access that doomed us came while the lock
  /// elision subscription was valid; purely informational.
  bool retry_recommended = true;
};

}  // namespace tsxhpc::sim
