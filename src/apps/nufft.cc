// nufft (Table 2): 3-D non-uniform FFT, adjoint operator — reduces a set of
// non-uniformly spaced spectral samples onto a uniform grid. Each sample
// contributes to an unpredictable neighbourhood of grid points; the
// original synchronizes with an ARRAY OF LOCKS hashed over the grid.
// Section 5.2: "nufft has significant concurrency within a critical
// section hidden under lock contention" — distinct samples mapping to the
// same lock rarely touch the same grid points, which is exactly what
// transactional execution exposes. Variants:
//   baseline     lock-array critical section per sample
//   tsx.init     elided region per sample
//   tsx.coarsen  dynamic coarsening: `gran` samples per region
#include "apps/common.h"

namespace tsxhpc::apps {

Result run_nufft(const Config& cfg) {
  Machine m(cfg.machine);
  const std::size_t grid = scaled(cfg.scale, 32768, 1024);  // grid cells
  const std::size_t n_samples = scaled(cfg.scale, 8192, 256);
  constexpr std::size_t kSpread = 4;  // gridding kernel width
  // Coarse lock array: many grid cells share one lock (as in the baseline
  // of [15]) — this creates the false lock contention tsx removes.
  const std::size_t n_locks = 64;
  const std::size_t gran = cfg.gran != 0 ? cfg.gran : 4;

  auto grid_re = SharedArray<double>::alloc(m, {.name = "nufft/grid"}, grid, 0.0);
  std::vector<sync::SpinLock> locks;
  locks.reserve(n_locks);
  for (std::size_t i = 0; i < n_locks; ++i) locks.emplace_back(m);
  sync::ElidedLock elided(m);

  struct Sample {
    std::uint32_t cell;  // first grid cell of its kernel support
    double v;
  };
  std::vector<Sample> samples(n_samples);
  Xoshiro256 rng(cfg.seed);
  for (auto& s : samples) {
    s = {static_cast<std::uint32_t>(rng.next_below(grid - kSpread)),
         rng.next_double()};
  }

  auto deposit = [&](Context& c, const Sample& s) {
    for (std::size_t j = 0; j < kSpread; ++j) {
      auto cell = grid_re.at(s.cell + j);
      cell.store(c, cell.load(c) + s.v / (1.0 + j));
    }
  };

  Result r = run_region(cfg, m, [&](Context& c) {
    const std::size_t per = (n_samples + cfg.threads - 1) / cfg.threads;
    const std::size_t i0 = c.tid() * per;
    const std::size_t i1 = std::min(n_samples, i0 + per);
    auto kernel_cost = [&] { c.compute(180); };  // interpolation weights

    switch (cfg.variant) {
      case Variant::kBaseline:
        for (std::size_t i = i0; i < i1; ++i) {
          kernel_cost();
          // The kernel support may straddle a lock-region boundary; the
          // original acquires every region lock the support touches.
          const std::size_t region = grid / n_locks;
          const std::size_t l1 = samples[i].cell / region;
          const std::size_t l2 = (samples[i].cell + kSpread - 1) / region;
          locks[l1].acquire(c);
          if (l2 != l1) locks[l2].acquire(c);
          deposit(c, samples[i]);
          if (l2 != l1) locks[l2].release(c);
          locks[l1].release(c);
        }
        break;
      case Variant::kTsxInit:
        for (std::size_t i = i0; i < i1; ++i) {
          kernel_cost();
          elided.critical(c, [&] { deposit(c, samples[i]); });
        }
        break;
      case Variant::kTsxCoarsen:
        for (std::size_t base = i0; base < i1; base += gran) {
          const std::size_t end = std::min(i1, base + gran);
          for (std::size_t i = base; i < end; ++i) kernel_cost();
          elided.critical(c, [&] {
            for (std::size_t i = base; i < end; ++i) deposit(c, samples[i]);
          });
        }
        break;
      case Variant::kConflictFree:
        throw sim::SimError("nufft has no conflict-free variant");
    }
  });

  double total = 0;
  for (std::size_t i = 0; i < grid; ++i) total += grid_re.at(i).peek(m);
  double expect = 0;
  for (const auto& s : samples) {
    for (std::size_t j = 0; j < kSpread; ++j) expect += s.v / (1.0 + j);
  }
  r.checksum = std::abs(total - expect) < 1e-6 * expect ? 0xFF7 : 0;
  return r;
}

}  // namespace tsxhpc::apps
