// physicsSolver (Table 2): projected SOR solver resolving pairwise force
// constraints between objects. The key critical section updates the total
// force on BOTH objects of a pair; the original acquires two per-object
// locks. Variants:
//   baseline     acquire the pair of per-object mutexes (address order)
//   tsx.init     LOCKSET ELISION (Section 5.2.1): one XBEGIN subscribes
//                both locks and replaces two atomic acquisitions
//   tsx.coarsen  plus dynamic coarsening: `gran` constraints per region
//   conflictfree barrier-based groups of independent constraints; the
//                input's skewed object degrees create the load imbalance
//                that makes this lose at 8 threads (Figure 5b).
#include "apps/common.h"

namespace tsxhpc::apps {

Result run_physics(const Config& cfg) {
  Machine m(cfg.machine);
  const std::size_t n_objects = scaled(cfg.scale, 512, 32);
  const std::size_t n_constraints = scaled(cfg.scale, 4096, 128);
  const int iterations = 3;
    // Table 2 applies Lockset elision (not dynamic coarsening) to
  // physicsSolver: the default "coarsened" configuration is gran 1, i.e.
  // pure lockset elision. Figure 5b sweeps gran explicitly.
  const std::size_t gran = cfg.gran != 0 ? cfg.gran : 1;

  // Per-object accumulated force (3 components, padded to a line by
  // allocation order) and per-object locks.
  auto force = SharedArray<double>::alloc(m, {.name = "physics/force"}, n_objects * 8, 0.0);
  std::vector<sync::SpinLock> locks;
  locks.reserve(n_objects);
  for (std::size_t i = 0; i < n_objects; ++i) locks.emplace_back(m);
  sync::ElidedLockSet lockset;

  // Constraints between object pairs. A FEW objects participate in MANY
  // constraints (Section 5.4.2: "the input scene has a few objects with
  // many updates, causing large load imbalance" for the barrier scheme).
  struct Constraint {
    std::uint32_t a, b;
    double f;
  };
  std::vector<Constraint> constraints(n_constraints);
  Xoshiro256 rng(cfg.seed);
  for (auto& k : constraints) {
    // Zipf-ish skew: a quarter of constraints touch one of 2 hub objects.
    const bool hub = rng.next_bool(0.25);
    k.a = hub ? static_cast<std::uint32_t>(rng.next_below(2))
              : static_cast<std::uint32_t>(rng.next_below(n_objects));
    do {
      k.b = static_cast<std::uint32_t>(rng.next_below(n_objects));
    } while (k.b == k.a);
    k.f = rng.next_double();
  }

  // Conflict-free groups for the barrier variant: greedy graph coloring of
  // constraints so no group touches an object twice. The paper omits the
  // group-formation time (amortized over reuse); so do we (host-side).
  std::vector<std::vector<std::uint32_t>> groups;
  if (cfg.variant == Variant::kConflictFree) {
    std::vector<std::vector<bool>> used;  // per group: object used?
    for (std::uint32_t i = 0; i < n_constraints; ++i) {
      const auto& k = constraints[i];
      std::size_t g = 0;
      for (;; ++g) {
        if (g == groups.size()) {
          groups.emplace_back();
          used.emplace_back(n_objects, false);
        }
        if (!used[g][k.a] && !used[g][k.b]) break;
      }
      groups[g].push_back(i);
      used[g][k.a] = used[g][k.b] = true;
    }
  }
  sync::Barrier group_barrier(m, cfg.threads);

  auto apply = [&](Context& c, const Constraint& k) {
    // Update both objects' force components.
    for (int d = 0; d < 3; ++d) {
      auto fa = force.at(k.a * 8 + d);
      fa.store(c, fa.load(c) + k.f);
      auto fb = force.at(k.b * 8 + d);
      fb.store(c, fb.load(c) - k.f);
    }
  };

  Result r = run_region(cfg, m, [&](Context& c) {
    const std::size_t per =
        (n_constraints + cfg.threads - 1) / cfg.threads;
    const std::size_t i0 = c.tid() * per;
    const std::size_t i1 = std::min(n_constraints, i0 + per);
    auto solve_cost = [&] { c.compute(120); };  // PSOR arithmetic

    for (int it = 0; it < iterations; ++it) {
      switch (cfg.variant) {
        case Variant::kBaseline:
          for (std::size_t i = i0; i < i1; ++i) {
            const auto& k = constraints[i];
            solve_cost();
            sync::SpinLock& first = locks[std::min(k.a, k.b)];
            sync::SpinLock& second = locks[std::max(k.a, k.b)];
            first.acquire(c);
            second.acquire(c);
            apply(c, k);
            second.release(c);
            first.release(c);
          }
          break;
        case Variant::kTsxInit:
          for (std::size_t i = i0; i < i1; ++i) {
            const auto& k = constraints[i];
            solve_cost();
            lockset.critical(c, {&locks[k.a], &locks[k.b]},
                             [&] { apply(c, k); });
          }
          break;
        case Variant::kTsxCoarsen:
          for (std::size_t base = i0; base < i1; base += gran) {
            const std::size_t end = std::min(i1, base + gran);
            std::vector<sync::SpinLock*> set;
            for (std::size_t i = base; i < end; ++i) {
              solve_cost();
              set.push_back(&locks[constraints[i].a]);
              set.push_back(&locks[constraints[i].b]);
            }
            lockset.critical(c, set, [&] {
              for (std::size_t i = base; i < end; ++i) {
                apply(c, constraints[i]);
              }
            });
          }
          break;
        case Variant::kConflictFree:
          for (const auto& group : groups) {
            const std::size_t gper =
                (group.size() + cfg.threads - 1) / cfg.threads;
            const std::size_t g0 = c.tid() * gper;
            const std::size_t g1 = std::min(group.size(), g0 + gper);
            for (std::size_t gi = g0; gi < g1; ++gi) {
              solve_cost();
              apply(c, constraints[group[gi]]);  // no synchronization
            }
            group_barrier.wait(c);
          }
          break;
      }
    }
  });

  double total = 0;
  for (std::size_t i = 0; i < n_objects * 8; ++i) {
    total += force.at(i).peek(m);
  }
  // Forces are antisymmetric: the sum over all objects must be ~0.
  r.checksum = std::abs(total) < 1e-6 ? 0x0F12 : 0;
  return r;
}

}  // namespace tsxhpc::apps
