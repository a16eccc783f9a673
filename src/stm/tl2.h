// TL2-style software transactional memory (Dice, Shalev & Shavit, DISC'06) —
// the STM the paper compares against on STAMP (its "tl2" series).
//
// Faithful to the algorithm's structure and, critically, to its *cost
// profile*: every transactional load checks a versioned write-lock, reads
// the value, and re-checks (3 simulated shared accesses + bookkeeping);
// commits acquire per-stripe locks, validate the read set against the
// global version clock, write back, and release. This is exactly the
// instrumentation overhead that makes STM slow at one thread in Figure 2.
//
// Like real TL2 (and unlike RTM), only *annotated* accesses are tracked:
// workloads route TM_READ/TM_WRITE through this class and may do untracked
// accesses elsewhere — e.g. labyrinth's private grid copy.
//
// The clock, the stripe table and the commit routine form the versioned
// layer MVCC builds on (mvcc.h): TL2 supplies only its read path, which
// aborts on any stripe newer than the snapshot.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/machine.h"
#include "sim/shared.h"
#include "stm/stm.h"

namespace tsxhpc::stm {

/// The global version clock and the versioned stripe-lock table. A lock
/// word is the even version of the stripe's last commit (2 at start), with
/// bit 0 set while a committer holds it.
class VersionedStripes {
 public:
  /// Allocates the clock, then the table, under the two given names.
  VersionedStripes(Machine& m, std::string_view clock_name,
                   std::string_view stripes_name)
      : clock_(sim::Shared<std::uint64_t>::alloc(m, {.name = clock_name}, 2)),
        locks_(sim::SharedArray<std::uint64_t>::alloc(
            m, {.name = stripes_name}, kStripes, 2)) {}

  sim::Shared<std::uint64_t> lock_for(Addr a) const {
    return locks_.at(stripe_of(a));
  }
  sim::Shared<std::uint64_t> clock() const { return clock_; }

 private:
  sim::Shared<std::uint64_t> clock_;
  sim::SharedArray<std::uint64_t> locks_;
};

/// The TL2 shared space: `tl2/clock`, then `tl2/stripes`.
class Tl2Space : public VersionedStripes {
 public:
  explicit Tl2Space(Machine& m)
      : VersionedStripes(m, "tl2/clock", "tl2/stripes") {}
};

/// A descriptor over versioned stripes: a clock snapshot at begin, the
/// stripes its reads saw, and the commit routine. TL2 and MVCC derive from
/// it and supply their read paths.
class VersionedTx : public StmTx {
 protected:
  VersionedTx(VersionedStripes& stripes, std::string scheme)
      : StmTx(std::move(scheme)), stripes_(stripes) {}

  /// Open an attempt at the current clock value (made even: unlocked).
  void start_snapshot(Context& c) {
    start();
    read_set_.clear();
    rv_ = stripes_.clock().load(c);
    if (rv_ & 1) rv_ ^= 1;
  }

  /// Commit a non-empty write log: lock its stripes in address order
  /// (sorting gives the progress guarantee of real TL2's bounded spin), bump
  /// the clock to wv, re-validate the read set unless no other commit came
  /// in between, then store each logged word, calling `before_store(i, wv)`
  /// just before the i-th, and release every stripe at version wv.
  template <typename BeforeStore>
  std::uint64_t commit_writes(Context& c, BeforeStore&& before_store) {
    locks_.clear();
    for (const auto& [word, value] : writes_.words()) {
      locks_.push_back(stripes_.lock_for(word).addr());
    }
    std::sort(locks_.begin(), locks_.end());
    locks_.erase(std::unique(locks_.begin(), locks_.end()), locks_.end());
    for (held_ = 0; held_ < locks_.size(); ++held_) {
      const Addr la = locks_[held_];
      const std::uint64_t v = c.load(la, 8);
      if ((v & 1) != 0 || v > rv_ || !c.cas(la, v, v | 1, 8)) {
        abort_tx(c, StmAbortKind::kLockAcquire);
      }
    }
    const std::uint64_t wv = stripes_.clock().fetch_add(c, 2) + 2;
    if (wv != rv_ + 2) {
      for (Addr la : read_set_) {
        const std::uint64_t v = c.load(la, 8);
        const bool locked_by_us =
            (v & 1) != 0 &&
            std::binary_search(locks_.begin(), locks_.end(), la);
        if (((v & 1) != 0 && !locked_by_us) || (v & ~1ULL) > rv_) {
          abort_tx(c, StmAbortKind::kCommitValidation);
        }
      }
    }
    const auto& words = writes_.words();
    for (std::size_t i = 0; i < words.size(); ++i) {
      before_store(i, wv);
      c.store(words[i].first, words[i].second, 8);
    }
    for (Addr la : locks_) c.store(la, wv, 8);
    held_ = 0;
    return wv;
  }

  /// Release the stripes a failed commit holds, each back to its version.
  void cleanup(Context& c) override {
    for (std::size_t i = 0; i < held_; ++i) {
      const std::uint64_t v = c.load(locks_[i], 8);
      c.store(locks_[i], v & ~1ULL, 8);
    }
    held_ = 0;
  }

  VersionedStripes& stripes_;
  std::uint64_t rv_ = 0;
  std::vector<Addr> read_set_;  // lock-word addresses

 private:
  std::vector<Addr> locks_;  // sorted, unique: the write set's stripes
  std::size_t held_ = 0;     // locks_[0, held_) are ours
};

/// Per-thread TL2 transaction descriptor.
class Tl2Tx final : public VersionedTx {
 public:
  explicit Tl2Tx(Tl2Space& space, std::string scheme = {})
      : VersionedTx(space, std::move(scheme)) {}

  void begin(Context& c) { start_snapshot(c); }

  std::uint64_t read(Context& c, Addr a, unsigned size = 8) {
    if (std::uint64_t own; logged(a, size, own)) return own;
    auto lock = stripes_.lock_for(a);
    const std::uint64_t v1 = lock.load(c);
    const std::uint64_t value = c.load(a, size);
    const std::uint64_t v2 = lock.load(c);
    if ((v1 & 1) != 0 || v1 != v2 || v1 > rv_) {
      abort_tx(c, StmAbortKind::kReadValidation);
    }
    read_set_.push_back(lock.addr());
    c.compute(kBookkeeping);
    return value;
  }

  void write(Context& c, Addr a, std::uint64_t value, unsigned size = 8) {
    log_write(c, a, value, size);
  }

  /// Commit; a read-only transaction's reads are already validated against
  /// rv. Throws StmAbort on failure (state already reset).
  void commit(Context& c) {
    if (!writes_.empty()) commit_writes(c, [](std::size_t, std::uint64_t) {});
    finish_commit(c);
  }
};

}  // namespace tsxhpc::stm
