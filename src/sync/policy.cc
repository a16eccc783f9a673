#include "sync/policy.h"

#include <algorithm>
#include <map>
#include <utility>

#include "sim/rng.h"

namespace tsxhpc::sync {
namespace {

using sim::AbortCause;
using sim::Addr;
using sim::Cycles;
using sim::ThreadId;
using sim::TxAbort;

/// The paper's Section 3 fallback handler. Every branch below reproduces the
/// pre-seam inline loops exactly (the committed baselines hold the telemetry
/// byte-identical): lock-busy waits for the word to clear when
/// spin_until_free, a cleared retry hint ends the section, everything else
/// backs off conflict_backoff cycles — and the wait/backoff happens even when
/// this was the last attempt, because the old loop ran handle_abort before
/// noticing the budget was spent.
class PaperPolicy : public TxPolicy {
 public:
  PaperPolicy(const ElisionPolicy& knobs, TxSiteTraits traits)
      : knobs_(knobs), traits_(traits) {}

  const char* name() const override { return "paper"; }
  int max_attempts() const override { return knobs_.max_retries; }

  bool should_attempt(Addr site, ThreadId tid) override {
    auto& sec = sections_[{site, tid}];
    sec = SectionState{};
    // A non-positive budget means the old `for (attempt < max_retries)` loop
    // made zero attempts and fell straight through to the lock.
    if (knobs_.max_retries <= 0) return false;
    if (traits_.adaptive) {
      auto& s = site_state(site);
      if (s.skip_left > 0) {
        --s.skip_left;
        return false;
      }
    }
    return on_should_attempt(site);
  }

  TxDecision on_abort(Addr site, ThreadId tid, const TxAbort& abort,
                      int attempt) override {
    auto& sec = sections_[{site, tid}];
    const bool more = attempt + 1 < knobs_.max_retries;
    if (is_capacity_class(abort.cause)) {
      sec.saw_hard_abort = true;
      // Two capacity-class strikes per section: the first might be the
      // probabilistic read tracker, the second means the section really
      // does not fit.
      if (traits_.capacity_break && ++sec.capacity_aborts >= 2)
        return TxDecision::Fallback();
    }
    if (abort.cause == AbortCause::kExplicit &&
        abort.code == kAbortCodeLockBusy) {
      return knobs_.spin_until_free ? TxDecision::WaitForLockThenRetry(more)
                                    : TxDecision::Retry(more);
    }
    if (knobs_.honor_retry_hint && !retry_may_succeed(abort.cause))
      return TxDecision::Fallback();
    return TxDecision::BackoffThenRetry(backoff_for(site, tid, attempt), more);
  }

  void on_commit(Addr site) override {
    if (!traits_.adaptive) return;
    auto& s = site_state(site);
    s.skip_base = knobs_.adaptive_skip;
    s.consecutive_hard_fallbacks = 0;
  }

  void on_fallback(Addr site, ThreadId tid) override {
    if (!traits_.adaptive) return;
    auto& sec = sections_[{site, tid}];
    if (!sec.saw_hard_abort) return;
    auto& s = site_state(site);
    if (++s.consecutive_hard_fallbacks >= knobs_.adaptive_trigger) {
      s.skip_left = s.skip_base;
      if (s.skip_base < 128) s.skip_base *= 2;
    }
  }

 protected:
  /// Extra per-site gate for subclasses (adaptive-site's holiday).
  virtual bool on_should_attempt(Addr) { return true; }
  /// Conflict-backoff schedule; expo-backoff overrides.
  virtual Cycles backoff_for(Addr, ThreadId, int /*attempt*/) {
    return knobs_.conflict_backoff;
  }

  const ElisionPolicy knobs_;
  const TxSiteTraits traits_;

 private:
  struct SiteState {
    int skip_left = 0;
    int skip_base = 0;  // set to knobs_.adaptive_skip on first touch
    int consecutive_hard_fallbacks = 0;
  };
  struct SectionState {
    bool saw_hard_abort = false;
    int capacity_aborts = 0;
  };

  SiteState& site_state(Addr site) {
    auto [it, fresh] = sites_.try_emplace(site);
    if (fresh) it->second.skip_base = knobs_.adaptive_skip;
    return it->second;
  }

  std::map<Addr, SiteState> sites_;
  std::map<std::pair<Addr, ThreadId>, SectionState> sections_;
};

/// `no-hint`: what Section 3 warns against measuring without — the handler
/// never decodes the abort status, so capacity/syscall aborts are retried
/// (with backoff) until the budget runs out instead of falling back early.
/// Lock-busy still waits for the word: that decision comes from the
/// subscription value, not the hint bit.
class NoHintPolicy : public TxPolicy {
 public:
  NoHintPolicy(const ElisionPolicy& knobs) : knobs_(knobs) {}

  const char* name() const override { return "no-hint"; }
  int max_attempts() const override { return knobs_.max_retries; }

  bool should_attempt(Addr, ThreadId) override {
    return knobs_.max_retries > 0;
  }

  TxDecision on_abort(Addr, ThreadId, const TxAbort& abort,
                      int attempt) override {
    const bool more = attempt + 1 < knobs_.max_retries;
    if (abort.cause == AbortCause::kExplicit &&
        abort.code == kAbortCodeLockBusy) {
      return knobs_.spin_until_free ? TxDecision::WaitForLockThenRetry(more)
                                    : TxDecision::Retry(more);
    }
    return TxDecision::BackoffThenRetry(knobs_.conflict_backoff, more);
  }

  void on_commit(Addr) override {}
  void on_fallback(Addr, ThreadId) override {}

 private:
  const ElisionPolicy knobs_;
};

/// `expo-backoff`: paper decisions, but the post-conflict backoff doubles per
/// attempt (capped at 2^6) with deterministic per-(site,thread) jitter in
/// [0, current backoff) drawn from a Xoshiro stream seeded from (site, tid).
/// Host-independent and backend-invariant: the stream state lives here, not
/// in any OS source of entropy, and advances once per backoff decision.
class ExpoBackoffPolicy : public PaperPolicy {
 public:
  using PaperPolicy::PaperPolicy;

  const char* name() const override { return "expo-backoff"; }

 protected:
  Cycles backoff_for(Addr site, ThreadId tid, int attempt) override {
    const Cycles base = knobs_.conflict_backoff
                        << std::min(attempt, 6);
    if (base == 0) return 0;
    auto it = rngs_.find({site, tid});
    if (it == rngs_.end()) {
      // SplitMix64 whitens the (site, tid) pair into a full-entropy seed.
      sim::SplitMix64 seeder(site * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull *
                             (static_cast<std::uint64_t>(tid) + 1));
      it = rngs_.emplace(std::make_pair(site, tid),
                         sim::Xoshiro256(seeder.next())).first;
    }
    return base + it->second.next_below(base);
  }

 private:
  std::map<std::pair<Addr, ThreadId>, sim::Xoshiro256> rngs_;
};

/// `adaptive-site`: the glibc elision heuristic (skip_lock_internal_abort /
/// skip_lock_after_retries) generalized to every site kind. ANY section that
/// ends in a fallback — not just capacity-driven ones, and with no
/// consecutive-section trigger — puts the site on an elision holiday of
/// `window` sections, and the window doubles (capped at 128) while fallbacks
/// keep happening; a transactional commit resets it. Abort handling within a
/// section is otherwise the paper's.
class AdaptiveSitePolicy : public PaperPolicy {
 public:
  AdaptiveSitePolicy(const ElisionPolicy& knobs, TxSiteTraits traits)
      // Strip the paper's own adaptive machinery: this policy replaces it
      // (running both would double-count fallbacks), but keep capacity_break.
      : PaperPolicy(knobs, TxSiteTraits{false, traits.capacity_break}) {}

  const char* name() const override { return "adaptive-site"; }

  void on_commit(Addr site) override {
    sites_[site].window = std::max(knobs_.adaptive_skip, 1);
  }

  void on_fallback(Addr site, ThreadId) override {
    auto& s = sites_[site];
    if (s.window == 0) s.window = std::max(knobs_.adaptive_skip, 1);
    s.skip_left = s.window;
    s.window = std::min(s.window * 2, 128);
  }

 protected:
  bool on_should_attempt(Addr site) override {
    auto& s = sites_[site];
    if (s.skip_left > 0) {
      --s.skip_left;
      return false;
    }
    return true;
  }

 private:
  struct SiteState {
    int skip_left = 0;
    int window = 0;  // next holiday length; 0 = not yet initialised
  };
  std::map<Addr, SiteState> sites_;
};

}  // namespace

std::shared_ptr<TxPolicy> make_tx_policy(sim::TxPolicyKind kind,
                                         const ElisionPolicy& knobs,
                                         TxSiteTraits traits) {
  switch (kind) {
    case sim::TxPolicyKind::kPaper:
      return std::make_shared<PaperPolicy>(knobs, traits);
    case sim::TxPolicyKind::kNoHint:
      return std::make_shared<NoHintPolicy>(knobs);
    case sim::TxPolicyKind::kExpoBackoff:
      return std::make_shared<ExpoBackoffPolicy>(knobs, traits);
    case sim::TxPolicyKind::kAdaptiveSite:
      return std::make_shared<AdaptiveSitePolicy>(knobs, traits);
  }
  return std::make_shared<PaperPolicy>(knobs, traits);
}

}  // namespace tsxhpc::sync
