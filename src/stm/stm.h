// The skeleton of the software-TM family (tl2 / tictoc / mvcc). Every
// scheme is a descriptor derived from StmTx, which owns what the three have
// in common:
//
//   * the write log: a sim::WriteBuffer of whole 8-byte words in first-write
//     order (the RTM model's speculative store buffer), read back for
//     read-your-writes and published at commit in that order;
//   * the commit actions (deferred frees) run iff the attempt commits;
//   * sim::CcStats, the only copy of the scheme's counters: starts, commits,
//     aborts by class and the scheme's extras, reported by tmlib as is;
//   * the one abort path: the scheme's cleanup, the count, the abort
//     penalty, then the StmAbort throw for the caller's attempt loop;
//   * the bookkeeping and abort-penalty costs, equal for every scheme so
//     scheme comparisons measure the algorithms, not accounting skew.
//
// A scheme supplies the rest: its shared space, its read path, the order of
// its commit and what its cleanup releases. TL2 and MVCC share a further
// layer, the versioned-stripe table and its commit routine (tl2.h).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/context.h"
#include "sim/telemetry.h"
#include "sim/write_buffer.h"

namespace tsxhpc::stm {

using sim::Addr;
using sim::Context;
using sim::Machine;

/// Every scheme's stripe table: 2^16 stripes of 8 bytes (stripe = addr >> 3,
/// wrapping), one metadata word each.
inline constexpr std::size_t kStripes = std::size_t{1} << 16;
inline std::size_t stripe_of(Addr a) { return (a >> 3) & (kStripes - 1); }

/// Why a software transaction aborted. The classes feed the per-run `cc`
/// telemetry block, which sim/invariants.h reconciles against the abort
/// total: every STM abort is exactly one of these.
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

/// The descriptor base. Derived descriptors provide begin/read/write/commit.
class StmTx {
 public:
  /// Every counter of this descriptor, labelled with the scheme name it was
  /// built with.
  const sim::CcStats& stats() const { return stats_; }

  /// Register an action to run iff this transaction commits (e.g. deferred
  /// frees from a TM-aware allocator). Discarded on abort.
  void on_commit(std::function<void(Context&)> action) {
    commit_actions_.push_back(std::move(action));
  }

 protected:
  explicit StmTx(std::string scheme) { stats_.scheme = std::move(scheme); }
  ~StmTx() = default;

  /// Open an attempt: empty log, no commit actions, one more start.
  void start() {
    writes_.clear();
    commit_actions_.clear();
    stats_.starts++;
  }

  /// Read-your-writes: true, with the field at `a` in `value`, when the
  /// log holds its word.
  bool logged(Addr a, unsigned size, std::uint64_t& value) {
    const std::uint64_t* word = writes_.find(sim::word_of(a));
    if (word == nullptr) return false;
    value = sim::word_extract(*word, a, size);
    return true;
  }

  /// Merge a write into the log. A word's first write loads the word, so
  /// sub-word writes merge correctly at write-back (real TL2 logs at word
  /// granularity too); it returns true with that pre-image in `pre_image`.
  bool log_write(Context& c, Addr a, std::uint64_t v, unsigned size,
                 std::uint64_t& pre_image) {
    const Addr k = sim::word_of(a);
    bool fresh;
    std::uint64_t& word = writes_.slot(k, fresh);
    if (fresh) word = pre_image = c.load(k, 8);
    word = sim::word_insert(word, a, v, size);
    c.compute(kBookkeeping);
    return fresh;
  }
  void log_write(Context& c, Addr a, std::uint64_t v, unsigned size) {
    std::uint64_t pre_image;
    log_write(c, a, v, size, pre_image);
  }

  /// Count the commit and run its actions: the last step of every commit.
  void finish_commit(Context& c) {
    stats_.commits++;
    for (auto& action : commit_actions_) action(c);
    commit_actions_.clear();
  }

  /// The one abort path: the scheme's cleanup, the count, the penalty.
  [[noreturn]] void abort_tx(Context& c, StmAbortKind kind) {
    cleanup(c);
    stats_.aborts++;
    switch (kind) {
      case StmAbortKind::kReadValidation:
        stats_.aborts_read_validation++;
        break;
      case StmAbortKind::kLockAcquire:
        stats_.aborts_lock_acquire++;
        break;
      case StmAbortKind::kCommitValidation:
        stats_.aborts_commit_validation++;
        break;
    }
    commit_actions_.clear();
    c.compute(kAbortPenalty);
    throw StmAbort{kind};
  }

  /// Undo whatever the attempt holds in shared state; runs first on abort.
  virtual void cleanup(Context& /*c*/) {}

  static constexpr sim::Cycles kBookkeeping = 6;
  static constexpr sim::Cycles kAbortPenalty = 120;

  sim::CcStats stats_;
  sim::WriteBuffer writes_;

 private:
  std::vector<std::function<void(Context&)>> commit_actions_;
};

}  // namespace tsxhpc::stm
