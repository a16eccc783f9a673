// ua (Table 2): the Unstructured Adaptive workload from NAS Parallel
// Benchmarks. The Mortar Element Method gathers thread-local collocation
// point values onto mortars of a dynamically changing global grid; each
// gather is synchronized with an atomic (Listing 2: four `#pragma omp
// atomic` adds per collocation point). Variants:
//   baseline     four LOCK-prefixed (CAS-loop) double adds per point
//   tsx.init     each add in its own elided region — slower than baseline
//   tsx.coarsen  STATIC coarsening: all four adds of a point in ONE region
//                (Section 5.2.2 / Listing 2), optionally combined with
//                dynamic batching of `gran` points.
#include "apps/common.h"

namespace tsxhpc::apps {

Result run_ua(const Config& cfg) {
  Machine m(cfg.machine);
  const std::size_t n_mortars = scaled(cfg.scale, 8192, 256);
  const std::size_t n_points = scaled(cfg.scale, 16384, 512);
  constexpr std::size_t kAddsPerPoint = 4;  // Listing 2: ig1..ig4
  const std::size_t gran = cfg.gran != 0 ? cfg.gran : 4;

  auto tmor = SharedArray<double>::alloc(m, {.name = "ua/tmor"}, n_mortars, 0.0);
  sync::ElidedLock elided(m);

  // Host-side inputs: per-point mortar indices and contribution values.
  struct Point {
    std::uint32_t ig[kAddsPerPoint];
    double tx;
  };
  std::vector<Point> points(n_points);
  Xoshiro256 rng(cfg.seed);
  for (auto& p : points) {
    // Mortars of one point are spatially clustered (mesh locality).
    const std::uint32_t base =
        static_cast<std::uint32_t>(rng.next_below(n_mortars - 8));
    for (std::size_t j = 0; j < kAddsPerPoint; ++j) {
      p.ig[j] = base + static_cast<std::uint32_t>(rng.next_below(8));
    }
    p.tx = 1.0 + rng.next_double();
  }

  const double third = 1.0 / 3.0;
  Result r = run_region(cfg, m, [&](Context& c) {
    const std::size_t per = (n_points + cfg.threads - 1) / cfg.threads;
    const std::size_t i0 = c.tid() * per;
    const std::size_t i1 = std::min(n_points, i0 + per);
    auto index_cost = [&] { c.compute(40); };  // collocation/mortar indexing

    switch (cfg.variant) {
      case Variant::kBaseline:
        for (std::size_t i = i0; i < i1; ++i) {
          index_cost();
          for (std::size_t j = 0; j < kAddsPerPoint; ++j) {
            tmor.at(points[i].ig[j]).atomic_add(c, points[i].tx * third);
          }
        }
        break;
      case Variant::kTsxInit:
        for (std::size_t i = i0; i < i1; ++i) {
          index_cost();
          for (std::size_t j = 0; j < kAddsPerPoint; ++j) {
            elided.critical(c, [&] {
              auto cell = tmor.at(points[i].ig[j]);
              cell.store(c, cell.load(c) + points[i].tx * third);
            });
          }
        }
        break;
      case Variant::kTsxCoarsen:
        // Static coarsening merges the four adds; dynamic coarsening then
        // batches `gran` points per region.
        for (std::size_t base = i0; base < i1; base += gran) {
          const std::size_t end = std::min(i1, base + gran);
          for (std::size_t i = base; i < end; ++i) index_cost();
          elided.critical(c, [&] {
            for (std::size_t i = base; i < end; ++i) {
              for (std::size_t j = 0; j < kAddsPerPoint; ++j) {
                auto cell = tmor.at(points[i].ig[j]);
                cell.store(c, cell.load(c) + points[i].tx * third);
              }
            }
          });
        }
        break;
      case Variant::kConflictFree:
        throw sim::SimError("ua has no conflict-free variant");
    }
  });

  double total = 0;
  for (std::size_t i = 0; i < n_mortars; ++i) total += tmor.at(i).peek(m);
  double expect = 0;
  for (const auto& p : points) expect += kAddsPerPoint * p.tx * third;
  // Floating-point association differs across schedules; compare loosely.
  const bool ok = std::abs(total - expect) < 1e-6 * expect;
  r.checksum = ok ? 0x0A : 0;
  return r;
}

}  // namespace tsxhpc::apps
