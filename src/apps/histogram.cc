// histogram (Table 2): parallel image histogram construction — the core
// compute of two-point correlation and radix sort. Variants:
//   baseline     one LOCK-prefixed add per bin update (#pragma omp atomic)
//   tsx.init     one elided region per update — SLOWER than baseline, as
//                Figure 4 shows (Section 4.1: a critical section around a
//                single update always loses to an atomic)
//   tsx.coarsen  dynamic coarsening: TXN_GRAN updates per region
//                (Listing 3), which recovers and beats the baseline
//   conflictfree privatization: per-thread histogram copies + reduction.
//                With many bins relative to items, the reduction dominates
//                and privatization stops scaling (Figure 5a).
#include "apps/common.h"

namespace tsxhpc::apps {

Result run_histogram(const Config& cfg) {
  Machine m(cfg.machine);
  // Figure 5a's regime: bin count large relative to the items binned.
  const std::size_t n_bins = scaled(cfg.scale, 65536, 256);
  const std::size_t n_items = scaled(cfg.scale, 262144, 512);
  const std::size_t gran = cfg.gran != 0 ? cfg.gran : 8;

  auto bins = SharedArray<std::uint64_t>::alloc(m, {.name = "histogram/bins"}, n_bins, 0);
  sync::ElidedLock elided(m);

  // Input pixels (host-side, read-only).
  std::vector<std::uint32_t> pixels(n_items);
  Xoshiro256 rng(cfg.seed);
  for (auto& p : pixels) {
    p = static_cast<std::uint32_t>(rng.next_below(n_bins));
  }

  // Privatization state (allocated eagerly so all variants share layout).
  const int max_threads = cfg.threads;
  SharedArray<std::uint64_t> priv;
  sync::Barrier reduce_barrier(m, cfg.threads);
  if (cfg.variant == Variant::kConflictFree) {
    priv = SharedArray<std::uint64_t>::alloc(
        m, n_bins * static_cast<std::size_t>(max_threads), 0);
  }

  Result r = run_region(cfg, m, [&](Context& c) {
    const std::size_t per = (n_items + cfg.threads - 1) / cfg.threads;
    const std::size_t i0 = c.tid() * per;
    const std::size_t i1 = std::min(n_items, i0 + per);
    auto pixel_cost = [&] { c.compute(12); };  // luminance computation

    switch (cfg.variant) {
      case Variant::kBaseline:
        for (std::size_t i = i0; i < i1; ++i) {
          pixel_cost();
          bins.at(pixels[i]).fetch_add(c, 1);
        }
        break;
      case Variant::kTsxInit:
        for (std::size_t i = i0; i < i1; ++i) {
          pixel_cost();
          elided.critical(c, [&] {
            bins.at(pixels[i]).store(c, bins.at(pixels[i]).load(c) + 1);
          });
        }
        break;
      case Variant::kTsxCoarsen: {
        // Listing 3: skip XBEGIN/XEND instances to merge TXN_GRAN updates.
        for (std::size_t base = i0; base < i1; base += gran) {
          const std::size_t end = std::min(i1, base + gran);
          for (std::size_t i = base; i < end; ++i) pixel_cost();
          elided.critical(c, [&] {
            for (std::size_t i = base; i < end; ++i) {
              bins.at(pixels[i]).store(c, bins.at(pixels[i]).load(c) + 1);
            }
          });
        }
        break;
      }
      case Variant::kConflictFree: {
        // Privatize: unsynchronized updates to this thread's copy...
        const std::size_t my = static_cast<std::size_t>(c.tid()) * n_bins;
        for (std::size_t i = i0; i < i1; ++i) {
          pixel_cost();
          const Addr a = priv.addr(my + pixels[i]);
          c.store(a, c.load(a) + 1);
        }
        // ...then reduce: thread t merges bins [t*n/T, (t+1)*n/T) across
        // all copies. Cost grows with n_bins, not with n_items — the
        // Figure 5a scaling killer.
        const std::size_t bper = (n_bins + cfg.threads - 1) / cfg.threads;
        const std::size_t b0 = c.tid() * bper;
        const std::size_t b1 = std::min(n_bins, b0 + bper);
        // Reduction must wait for all counting to finish.
        reduce_barrier.wait(c);
        for (std::size_t b = b0; b < b1; ++b) {
          std::uint64_t sum = 0;
          for (int t = 0; t < cfg.threads; ++t) {
            sum += c.load(priv.addr(static_cast<std::size_t>(t) * n_bins + b));
          }
          if (sum != 0) c.store(bins.addr(b), sum);
        }
        break;
      }
    }
  });

  std::uint64_t total = 0;
  for (std::size_t b = 0; b < n_bins; ++b) total += bins.at(b).peek(m);
  r.checksum = total == n_items ? 0x815 : 0;
  return r;
}

}  // namespace tsxhpc::apps
