// Multi-version concurrency control on top of the TL2 versioned layer
// (tl2.h) — the ROADMAP's "MVCC layer with snapshot read-only transactions
// and epoch-based garbage collection" item, modeled on the sto
// MvRegistry/RBTree exemplars (per-thread registries, GC accounting).
//
// The update path is TL2's own commit routine (stripe write-locks, global
// version clock, commit-time read validation — serializable first-committer-
// wins, so cross-scheme workload checksums stay comparable and SI write-skew
// cannot creep in). What MVCC adds is the read path: overwritten values are
// preserved in host-side version chains, so *reads never abort* — a read
// that finds its stripe newer than the snapshot walks the chain for the
// version that was current at `rv` instead of throwing (a stripe still
// mid-publish is briefly waited out, since its commit may already be inside
// the snapshot). A transaction that never wrote therefore commits with zero
// validation work (`snapshot_commits` in the telemetry `cc` block) — the
// standard answer for read-mostly production traffic. Its cleanup on abort
// withdraws the snapshot from the registry after the versioned layer's.
//
// Version chains are host-side bookkeeping, not simulated memory: a chain
// entry is the *pre-image* of a committed overwrite, keyed by the word
// address, stamped with the overwriting commit's clock value wv. The
// pre-images are kept beside the write log, one per logged word, and the
// commit's publish step appends each *before* its new value is stored, so a
// concurrent snapshot reader always finds either the old memory value
// (commit not yet at this word) or the chain entry (commit past it) — both
// equal the value at rv. Chain walks are charged simulated compute per hop;
// they cost time, just not coherence traffic (the chain is thread-private
// history in real MVCC implementations too).
//
// Epoch GC: every kGcInterval update commits, the committer prunes entries
// no active snapshot can reach (wv <= min active rv, read from the
// per-thread registry) and is charged for the work; `gc_runs`/`gc_reclaims`
// are attributed to the triggering thread.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stm/tl2.h"

namespace tsxhpc::stm {

/// Shared MVCC metadata: the versioned stripes (`mvcc/clock`, then
/// `mvcc/stripes`), the host-side version chains, and the per-thread
/// active-snapshot registry.
class MvccSpace : public VersionedStripes {
 public:
  explicit MvccSpace(Machine& m)
      : VersionedStripes(m, "mvcc/clock", "mvcc/stripes") {}

  /// Per-thread snapshot registry (the MvRegistry idea): a transaction
  /// publishes its rv at begin and withdraws it at commit/abort; GC reads
  /// the minimum to find the reclamation horizon.
  void set_active(sim::ThreadId tid, std::uint64_t rv) { active_[tid] = rv; }
  void clear_active(sim::ThreadId tid) { active_.erase(tid); }

  /// Append the pre-image of word `addr`, overwritten by the commit at wv.
  void chain_append(Addr addr, std::uint64_t wv, std::uint64_t pre_image) {
    chains_[addr].push_back({wv, pre_image});
  }

  /// Find the value of `addr` at snapshot `rv`: the pre-image of the oldest
  /// overwrite newer than rv. Returns false (memory holds the value) if no
  /// such overwrite exists. `hops` counts entries inspected, `depth` the
  /// chain length.
  bool chain_lookup(Addr addr, std::uint64_t rv, std::uint64_t* value,
                    std::uint64_t* hops, std::uint64_t* depth) const {
    *hops = 0;
    *depth = 0;
    auto it = chains_.find(addr);
    if (it == chains_.end()) return false;
    const auto& chain = it->second;
    *depth = chain.size();
    // Entries ascend by wv; scan newest-first for the oldest entry with
    // wv > rv.
    bool found = false;
    for (auto e = chain.rbegin(); e != chain.rend(); ++e) {
      ++*hops;
      if (e->wv <= rv) break;
      *value = e->pre_image;
      found = true;
    }
    return found;
  }

  /// True every kGcInterval-th update commit — the GC cadence.
  bool note_update_commit() {
    return ++update_commits_ % kGcInterval == 0;
  }

  /// Prune every chain entry no active snapshot can reach (wv <= min active
  /// rv; `horizon` — the caller's wv — bounds it when no snapshot is live).
  /// Returns the number of entries reclaimed.
  std::uint64_t gc(std::uint64_t horizon) {
    std::uint64_t min_rv = horizon;
    for (const auto& [tid, rv] : active_) min_rv = std::min(min_rv, rv);
    std::uint64_t reclaimed = 0;
    for (auto it = chains_.begin(); it != chains_.end();) {
      auto& chain = it->second;
      auto keep = std::find_if(
          chain.begin(), chain.end(),
          [min_rv](const Version& v) { return v.wv > min_rv; });
      reclaimed += static_cast<std::uint64_t>(keep - chain.begin());
      chain.erase(chain.begin(), keep);
      it = chain.empty() ? chains_.erase(it) : std::next(it);
    }
    return reclaimed;
  }

  static constexpr std::uint64_t kGcInterval = 64;

 private:
  struct Version {
    std::uint64_t wv;         // clock value of the overwriting commit
    std::uint64_t pre_image;  // word value it replaced
  };

  std::map<Addr, std::vector<Version>> chains_;  // ordered => deterministic
  std::map<sim::ThreadId, std::uint64_t> active_;
  std::uint64_t update_commits_ = 0;
};

/// Per-thread MVCC transaction descriptor.
class MvccTx final : public VersionedTx {
 public:
  explicit MvccTx(MvccSpace& space, std::string scheme = {})
      : VersionedTx(space, std::move(scheme)), space_(space) {}

  void begin(Context& c) {
    start_snapshot(c);
    pre_images_.clear();
    tid_ = c.tid();
    space_.set_active(tid_, rv_);
  }

  /// Snapshot read: never aborts. Fast path = TL2-style sandwich when the
  /// stripe is quiescent at or before rv; otherwise walk the version chain.
  std::uint64_t read(Context& c, Addr a, unsigned size = 8) {
    if (std::uint64_t own; logged(a, size, own)) return own;
    auto lock = stripes_.lock_for(a);
    for (;;) {
      const std::uint64_t v1 = lock.load(c);
      if ((v1 & 1) != 0) {
        // A commit is publishing this stripe. Its wv may be at or below our
        // rv (the clock is bumped before the stores land), in which case
        // the snapshot INCLUDES it and neither memory nor the chain holds
        // the right value yet — wait out the short publish window. Not an
        // abort: reads still never fail.
        c.compute(kLockSpin);
        continue;
      }
      // Version-sandwiched memory load: `word` is the stripe's stable value
      // at version v1.
      const std::uint64_t word = c.load(sim::word_of(a), 8);
      const std::uint64_t v2 = lock.load(c);
      if (v1 != v2) continue;  // the stripe moved under us — recheck
      read_set_.push_back(lock.addr());
      if (v1 <= rv_) {
        c.compute(kBookkeeping);
        return sim::word_extract(word, a, size);
      }
      // The stripe is newer than rv. Update transactions recorded it above
      // — commit validation will see the too-new version and abort them
      // (first-committer-wins); the snapshot value itself comes from the
      // chain. Every overwrite of this word past rv appended its pre-image
      // before storing (and the stripe is quiescent), so a miss means the
      // sibling words moved the stripe and `word` is still the value at rv.
      // The lookup runs host-side directly after the sandwich, with no
      // yield in between.
      std::uint64_t value = 0, hops = 0, depth = 0;
      const bool in_chain = space_.chain_lookup(sim::word_of(a), rv_, &value,
                                                &hops, &depth);
      stats_.version_chain_hops += hops;
      stats_.version_chain_depth_max =
          std::max(stats_.version_chain_depth_max, depth);
      c.compute(kBookkeeping + kChainHop * static_cast<sim::Cycles>(hops));
      return sim::word_extract(in_chain ? value : word, a, size);
    }
  }

  void write(Context& c, Addr a, std::uint64_t value, unsigned size = 8) {
    std::uint64_t pre_image;
    if (log_write(c, a, value, size, pre_image)) {
      pre_images_.push_back(pre_image);
    }
  }

  /// Commit. Read-only transactions commit for free (the snapshot *is* the
  /// serialization point); update transactions validate like TL2 and
  /// publish pre-images to the version chains.
  void commit(Context& c) {
    if (writes_.empty()) {
      space_.clear_active(tid_);
      stats_.snapshot_commits++;
      finish_commit(c);
      return;
    }
    const std::uint64_t wv =
        commit_writes(c, [this](std::size_t i, std::uint64_t at) {
          space_.chain_append(writes_.words()[i].first, at, pre_images_[i]);
          stats_.versions_created++;
        });
    space_.clear_active(tid_);
    if (space_.note_update_commit()) {
      const std::uint64_t reclaimed = space_.gc(wv);
      stats_.gc_runs++;
      stats_.gc_reclaims += reclaimed;
      c.compute(kGcBase + kGcPerReclaim * static_cast<sim::Cycles>(reclaimed));
    }
    finish_commit(c);
  }

 private:
  void cleanup(Context& c) override {
    VersionedTx::cleanup(c);
    space_.clear_active(tid_);
  }

  static constexpr sim::Cycles kChainHop = 4;
  static constexpr sim::Cycles kLockSpin = 4;
  static constexpr sim::Cycles kGcBase = 40;
  static constexpr sim::Cycles kGcPerReclaim = 2;

  MvccSpace& space_;
  sim::ThreadId tid_ = 0;
  std::vector<std::uint64_t> pre_images_;  // parallel to writes_.words()
};

}  // namespace tsxhpc::stm
