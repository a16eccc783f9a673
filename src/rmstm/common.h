// Shared scaffolding for RMS-TM workloads: the scheme-dispatching critical
// section runner.
#pragma once

#include <algorithm>
#include <vector>

#include "rmstm/rmstm.h"
#include "sim/rng.h"
#include "sim/shared.h"
#include "sync/locks.h"

namespace tsxhpc::rmstm {

using sim::Addr;
using sim::Context;
using sim::Cycles;
using sim::Machine;
using sim::Shared;
using sim::SharedArray;
using sim::Xoshiro256;

/// Runs critical sections under the configured scheme. `entity` selects the
/// fine-grained lock; sgl and tsx ignore it (one global lock, the tsx
/// scheme eliding exactly that lock — Section 4.3: "the code section that
/// is being synchronized is the same as Intel TSX").
class CsRunner {
 public:
  CsRunner(Machine& m, const Config& cfg, std::size_t n_entities)
      : scheme_(cfg.scheme), global_(m) {
    fine_.reserve(n_entities);
    for (std::size_t i = 0; i < n_entities; ++i) fine_.emplace_back(m);
  }

  template <typename F>
  void section(Context& c, std::size_t entity, F&& f) {
    switch (scheme_) {
      case Scheme::kFgl: {
        sync::Guard<sync::SpinLock> g(c, fine_[entity]);
        f();
        return;
      }
      case Scheme::kSgl: {
        sync::Guard<sync::SpinLock> g(c, global_.underlying());
        f();
        return;
      }
      case Scheme::kTsx:
        global_.critical(c, f);
        return;
    }
  }

  /// Two-entity critical section (fgl acquires both locks in index order).
  template <typename F>
  void section2(Context& c, std::size_t e1, std::size_t e2, F&& f) {
    if (scheme_ != Scheme::kFgl || e1 == e2) {
      section(c, e1, std::forward<F>(f));
      return;
    }
    const std::size_t lo = std::min(e1, e2), hi = std::max(e1, e2);
    sync::Guard<sync::SpinLock> g1(c, fine_[lo]);
    sync::Guard<sync::SpinLock> g2(c, fine_[hi]);
    f();
  }

 private:
  Scheme scheme_;
  sync::ElidedLock global_;
  std::vector<sync::SpinLock> fine_;
};

/// Run the SPMD region and collect a Result.
template <typename BodyFn>
Result run_region(const Config& cfg, Machine& m, BodyFn&& body) {
  Result r;
  sim::RunSpec spec;
  spec.threads = cfg.threads;
  spec.label = cfg.run_label;
  spec.body = std::forward<BodyFn>(body);
  r.stats = m.run(spec);
  r.makespan = r.stats.makespan;
  return r;
}

inline std::size_t scaled(double scale, std::size_t base,
                          std::size_t min = 1) {
  const auto v = static_cast<std::size_t>(base * scale);
  return v < min ? min : v;
}

}  // namespace tsxhpc::rmstm
