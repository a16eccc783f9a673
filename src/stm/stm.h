// Shared vocabulary of the software-TM family (tl2 / tictoc / mvcc): the
// abort exception their retry loops unwind on, classified by where in the
// transaction lifecycle the conflict surfaced. The classes feed the per-run
// `cc` telemetry block (telemetry v7), which sim/invariants.h reconciles
// against the abort totals — every STM abort is exactly one of these.
#pragma once

#include <cstdint>

namespace tsxhpc::stm {

/// Why a software transaction aborted.
enum class StmAbortKind : std::uint8_t {
  /// A transactional read observed a stripe version newer than the snapshot
  /// (or a torn/locked stripe) — the classic read-time validation failure.
  kReadValidation,
  /// The transaction could not acquire a stripe lock (held by a concurrent
  /// committer, or a no-wait read lock lost the race).
  kLockAcquire,
  /// Commit-time validation of the read set failed (the snapshot went stale
  /// between the last read and the commit point).
  kCommitValidation,
};

inline const char* to_string(StmAbortKind k) {
  switch (k) {
    case StmAbortKind::kReadValidation: return "read_validation";
    case StmAbortKind::kLockAcquire: return "lock_acquire";
    case StmAbortKind::kCommitValidation: return "commit_validation";
  }
  return "?";
}

/// Thrown on validation failure; the caller's retry loop restarts the
/// transaction (analogous to sigsetjmp/siglongjmp in real TL2).
struct StmAbort {
  StmAbortKind kind = StmAbortKind::kReadValidation;
};

namespace detail {

/// Word-granularity write-log helpers shared by the STM write buffers: logs
/// hold the enclosing 8-byte word so sub-word writes merge correctly at
/// write-back time (real TL2 logs at word granularity too).
inline std::uint64_t word_key(std::uint64_t a) {
  return a & ~std::uint64_t{7};
}

inline std::uint64_t word_extract(std::uint64_t word, std::uint64_t a,
                                  unsigned size) {
  const unsigned shift = static_cast<unsigned>(a & 7) * 8;
  const std::uint64_t mask = size == 8 ? ~0ULL : (1ULL << (size * 8)) - 1;
  return (word >> shift) & mask;
}

inline std::uint64_t word_insert(std::uint64_t word, std::uint64_t a,
                                 std::uint64_t v, unsigned size) {
  const unsigned shift = static_cast<unsigned>(a & 7) * 8;
  const std::uint64_t mask =
      size == 8 ? ~0ULL : ((1ULL << (size * 8)) - 1) << shift;
  return (word & ~mask) | ((v << shift) & mask);
}

}  // namespace detail

}  // namespace tsxhpc::stm
