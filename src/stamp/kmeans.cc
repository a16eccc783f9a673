// STAMP kmeans (high-contention configuration): K-means clustering where
// the per-point center updates are transactional. A transaction adds one
// point into its chosen center's accumulator (one line of doubles plus a
// count) — a small footprint, but with few centers every thread hammers the
// same lines, so the abort rate climbs steeply with thread count (Table 1:
// tsx 0/26/71/96%).
//
// The paper discounts kmeans *timing* comparisons because convergence order
// affects iteration counts; we run a fixed number of iterations so that the
// measured work is identical across backends.
#include "stamp/common.h"

namespace tsxhpc::stamp {

namespace {
constexpr std::size_t kDims = 16;  // two cache lines of doubles per center
}

Result run_kmeans(const Config& cfg) {
  Machine m(cfg.machine);
  TmRuntime rt(m, cfg.backend);

  const std::size_t n_points = scaled(cfg.scale, 2048, 64);
  const std::size_t k = 8;  // high-contention: few clusters
  const int iterations = 4;

  // Points are read-only input: host-side.
  std::vector<std::array<double, kDims>> points(n_points);
  Xoshiro256 rng(cfg.seed);
  for (auto& p : points) {
    for (auto& x : p) x = rng.next_double() * 100.0;
  }

  // Shared state: center positions (read in the assignment step), center
  // accumulators + member counts (transactionally updated).
  auto centers = SharedArray<double>::alloc(m, {.name = "kmeans/centers"}, k * kDims, 0.0);
  auto accum = SharedArray<double>::alloc(
      m, {.name = "kmeans/accum", .hint = sim::AllocHint::kHot}, k * kDims,
      0.0);
  auto counts = SharedArray<std::uint64_t>::alloc(m, {.name = "kmeans/counts"}, k, 0);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t d = 0; d < kDims; ++d) {
      centers.at(j * kDims + d).init(m, points[j * 7 % n_points][d]);
    }
  }

  auto barrier_word = Shared<std::uint32_t>::alloc(m, {.name = "kmeans/barrier"}, 0);
  auto barrier_arrived = Shared<std::uint32_t>::alloc(m, {.name = "kmeans/barrier"}, 0);
  auto spin_barrier = [&](Context& c) {
    const std::uint32_t sense = barrier_word.load(c);
    if (barrier_arrived.fetch_add(c, 1) + 1 ==
        static_cast<std::uint32_t>(cfg.threads)) {
      barrier_arrived.store(c, 0);
      barrier_word.store(c, sense + 1);
    } else {
      while (barrier_word.load(c) == sense) c.compute(60);
    }
  };

  Result r = run_region(cfg, m, rt, [&](Context& c, TmThread& t) {
    const std::size_t per =
        (n_points + cfg.threads - 1) / cfg.threads;
    const std::size_t p0 = c.tid() * per;
    const std::size_t p1 = std::min(n_points, p0 + per);
    for (int it = 0; it < iterations; ++it) {
      for (std::size_t p = p0; p < p1; ++p) {
        // Assignment: unsynchronized reads of the centers (as in STAMP).
        std::size_t best = 0;
        double best_d = 1e300;
        for (std::size_t j = 0; j < k; ++j) {
          double dist = 0;
          for (std::size_t d = 0; d < kDims; ++d) {
            const double cj = centers.at(j * kDims + d).load(c);
            const double diff = points[p][d] - cj;
            dist += diff * diff;
          }
          c.compute(3 * kDims);
          if (dist < best_d) {
            best_d = dist;
            best = j;
          }
        }
        // Update: one transaction per point (the STAMP critical section).
        t.atomic([&](TmAccess& tm) {
          for (std::size_t d = 0; d < kDims; ++d) {
            const Addr a = accum.addr(best * kDims + d);
            const double cur = sim::detail::decode<double>(tm.read(a));
            tm.write(a, sim::detail::encode(cur + points[p][d]));
          }
          tm.write(counts.addr(best), tm.read(counts.addr(best)) + 1);
        });
      }
      spin_barrier(c);
      // Thread 0 recomputes centers from the accumulators, then clears.
      if (c.tid() == 0) {
        for (std::size_t j = 0; j < k; ++j) {
          const std::uint64_t n = counts.at(j).load(c);
          for (std::size_t d = 0; d < kDims; ++d) {
            if (n > 0) {
              const double sum = accum.at(j * kDims + d).load(c);
              centers.at(j * kDims + d).store(c, sum / static_cast<double>(n));
            }
            accum.at(j * kDims + d).store(c, 0.0);
          }
          counts.at(j).store(c, 0);
        }
      }
      spin_barrier(c);
    }
  });

  // Checksum: memberships of the final assignment recomputed serially —
  // depends only on the final center positions. Use a quantized digest so
  // floating-point association differences across schedules do not flip it.
  std::uint64_t digest = 0;
  for (std::size_t j = 0; j < k * kDims; ++j) {
    digest += static_cast<std::uint64_t>(
        std::llround(centers.at(j).peek(m) * 16.0));
  }
  r.checksum = digest;
  return r;
}

}  // namespace tsxhpc::stamp
