// canneal (Table 2): PARSEC's VLSI-router, simulated annealing. Each thread
// repeatedly picks two netlist elements and tries to swap their locations.
// The original performs the swap with a SOPHISTICATED LOCK-FREE algorithm:
// version-stamped locations read with atomic loads, cost evaluation, then a
// two-location commit protected by version rechecks and CAS retries.
// Variants:
//   baseline     the lock-free algorithm (atomics + version checks)
//   tsx.init     replace the whole algorithm with one elided region —
//                simpler AND faster, because the atomic read-time checks
//                disappear (Section 5.2, confirming Dice et al. [5])
//   tsx.coarsen  batch `gran` swap attempts per region
#include "apps/common.h"

namespace tsxhpc::apps {

Result run_canneal(const Config& cfg) {
  Machine m(cfg.machine);
  const std::size_t n_elements = scaled(cfg.scale, 4096, 256);
  const std::size_t n_swaps = scaled(cfg.scale, 6144, 256);
  const std::size_t gran = cfg.gran != 0 ? cfg.gran : 4;

  // Element locations, each with a version counter: [loc, version] pairs.
  auto loc =
      SharedArray<std::uint64_t>::alloc(m, {.name = "canneal/loc"}, n_elements, 0);
  auto ver =
      SharedArray<std::uint64_t>::alloc(m, {.name = "canneal/ver"}, n_elements, 0);
  for (std::size_t i = 0; i < n_elements; ++i) loc.at(i).init(m, i);
  sync::ElidedLock elided(m);

  Result r = run_region(cfg, m, [&](Context& c) {
    Xoshiro256 rng(cfg.seed * 131 + c.tid());
    const std::size_t per = (n_swaps + cfg.threads - 1) / cfg.threads;
    auto cost_eval = [&] { c.compute(250); };  // routing-cost delta

    auto pick_pair = [&](std::size_t& a, std::size_t& b) {
      a = rng.next_below(n_elements);
      do {
        b = rng.next_below(n_elements);
      } while (b == a);
      if (a > b) std::swap(a, b);
    };

    switch (cfg.variant) {
      case Variant::kBaseline:
        for (std::size_t s = 0; s < per; ++s) {
          std::size_t a, b;
          pick_pair(a, b);
          for (;;) {
            // Lock-free read phase: location + version snapshots. Odd
            // version = concurrent swap in flight; spin.
            const std::uint64_t va = ver.at(a).load(c);
            const std::uint64_t vb = ver.at(b).load(c);
            if (((va | vb) & 1) != 0) {
              c.compute(60);
              continue;
            }
            const std::uint64_t la = loc.at(a).load(c);
            const std::uint64_t lb = loc.at(b).load(c);
            cost_eval();
            // Re-check versions before attempting the commit (the
            // read-time checks tsx.init eliminates).
            if (ver.at(a).load(c) != va || ver.at(b).load(c) != vb) {
              continue;
            }
            // Two-location commit: CAS the versions to odd (busy), swap,
            // release with incremented versions.
            if (!ver.at(a).cas(c, va, va + 1)) continue;
            if (!ver.at(b).cas(c, vb, vb + 1)) {
              ver.at(a).store(c, va);  // roll back a's busy mark
              continue;
            }
            loc.at(a).store(c, lb);
            loc.at(b).store(c, la);
            ver.at(a).store(c, va + 2);
            ver.at(b).store(c, vb + 2);
            break;
          }
        }
        break;
      case Variant::kTsxInit:
        for (std::size_t s = 0; s < per; ++s) {
          std::size_t a, b;
          pick_pair(a, b);
          cost_eval();
          elided.critical(c, [&] {
            const std::uint64_t la = loc.at(a).load(c);
            loc.at(a).store(c, loc.at(b).load(c));
            loc.at(b).store(c, la);
          });
        }
        break;
      case Variant::kTsxCoarsen:
        for (std::size_t base = 0; base < per; base += gran) {
          const std::size_t end = std::min(per, base + gran);
          std::vector<std::pair<std::size_t, std::size_t>> pairs;
          for (std::size_t s = base; s < end; ++s) {
            std::size_t a, b;
            pick_pair(a, b);
            pairs.emplace_back(a, b);
            cost_eval();
          }
          elided.critical(c, [&] {
            for (const auto& [a, b] : pairs) {
              const std::uint64_t la = loc.at(a).load(c);
              loc.at(a).store(c, loc.at(b).load(c));
              loc.at(b).store(c, la);
            }
          });
        }
        break;
      case Variant::kConflictFree:
        throw sim::SimError("canneal has no conflict-free variant");
    }
  });

  // Swaps are permutations: the multiset of locations must be 0..n-1.
  std::vector<bool> seen(n_elements, false);
  bool ok = true;
  for (std::size_t i = 0; i < n_elements; ++i) {
    const std::uint64_t l = loc.at(i).peek(m);
    if (l >= n_elements || seen[l]) ok = false;
    if (l < n_elements) seen[l] = true;
  }
  r.checksum = ok ? 0xCA7 : 0;
  return r;
}

}  // namespace tsxhpc::apps
