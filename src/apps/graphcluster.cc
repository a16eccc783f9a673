// graphCluster (Table 2): Kernel 4 of SSCA2 — min-cut graph clustering.
// Vertices are examined in parallel; depending on its neighbours a vertex
// may be added to or removed from a cluster. The original code guards each
// vertex with a per-vertex lock using the Listing-1 double path:
// omp_test_lock() (non-blocking) first, omp_set_lock() (blocking) if that
// fails — i.e. under contention it performs TWO lock operations. Variants:
//   baseline     Listing 1: try-lock path + blocking path per vertex
//   tsx.init     LOCKSET ELISION of the two lock checks: one XBEGIN
//                replaces both acquisition paths (Section 5.2.1)
//   tsx.coarsen  plus dynamic coarsening over `gran` vertex updates
#include "apps/common.h"

namespace tsxhpc::apps {

Result run_graphcluster(const Config& cfg) {
  Machine m(cfg.machine);
  const std::size_t n_vertices = scaled(cfg.scale, 2048, 128);
  const std::size_t n_rounds = 3;
  constexpr std::size_t kDegree = 4;
  const std::size_t gran = cfg.gran != 0 ? cfg.gran : 2;

  // Per-vertex state, padded to a cache line (as SSCA2's vertex records
  // are): [0]=cluster id, [1]=cut-cost accumulator.
  auto vstate = SharedArray<std::uint64_t>::alloc(m, {.name = "graphcluster/vstate"}, n_vertices * 8, 0);
  auto cluster_at = [&](std::size_t v) { return vstate.at(v * 8); };
  auto cutcost_at = [&](std::size_t v) { return vstate.at(v * 8 + 1); };
  std::vector<sync::SpinLock> locks;
  locks.reserve(n_vertices);
  for (std::size_t i = 0; i < n_vertices; ++i) locks.emplace_back(m);
  sync::ElidedLockSet lockset;

  // Graph: fixed-degree adjacency, host-side (read-only topology).
  std::vector<std::array<std::uint32_t, kDegree>> adj(n_vertices);
  Xoshiro256 rng(cfg.seed);
  for (auto& nb : adj) {
    for (auto& v : nb) {
      v = static_cast<std::uint32_t>(rng.next_below(n_vertices));
    }
  }
  for (std::size_t v = 0; v < n_vertices; ++v) {
    cluster_at(v).init(m, v % 16);
  }

  // The vertex-status update performed under the vertex's lock.
  auto update_vertex = [&](Context& c, std::size_t v) {
    // Neighbour majority vote (reads are unsynchronized in the original).
    std::uint64_t votes[16] = {};
    for (std::uint32_t nb : adj[v]) votes[cluster_at(nb).load(c) % 16]++;
    std::size_t best = 0;
    for (std::size_t k = 1; k < 16; ++k) {
      if (votes[k] > votes[best]) best = k;
    }
    c.compute(80);  // cluster membership-list bookkeeping
    cluster_at(v).store(c, best);
    vstate.at(v * 8 + 2).store(c, vstate.at(v * 8 + 2).load(c) + 1);
    cutcost_at(v).store(c, cutcost_at(v).load(c) + kDegree - votes[best]);
  };

  // Vertex visit order: random with a hot set (cluster frontiers attract
  // many threads at once), which is what makes Listing 1's non-blocking
  // path fail and fall into the blocking path under contention.
  auto pick_vertex = [&](Xoshiro256& prng) {
    return prng.next_bool(0.12)
               ? prng.next_below(4)  // hot frontier vertices
               : prng.next_below(n_vertices);
  };

  Result r = run_region(cfg, m, [&](Context& c) {
    const std::size_t per = (n_vertices + cfg.threads - 1) / cfg.threads;
    Xoshiro256 prng(cfg.seed * 1117 + c.tid());
    for (std::size_t round = 0; round < n_rounds; ++round) {
      const std::size_t i0 = 0;
      const std::size_t i1 = per;
      auto gain_cost = [&] { c.compute(150); };  // cut-gain evaluation

      switch (cfg.variant) {
        case Variant::kBaseline:
          for (std::size_t i = i0; i < i1; ++i) {
            const std::size_t v = pick_vertex(prng);
            gain_cost();
            // Listing 1: non-blocking path first, blocking path second.
            if (locks[v].try_acquire(c)) {
              update_vertex(c, v);
              locks[v].release(c);
            } else {
              locks[v].acquire(c);
              update_vertex(c, v);
              locks[v].release(c);
            }
          }
          break;
        case Variant::kTsxInit:
          for (std::size_t i = i0; i < i1; ++i) {
            const std::size_t v = pick_vertex(prng);
            gain_cost();
            // One transactional begin replaces both lock checks.
            lockset.critical(c, {&locks[v]}, [&] { update_vertex(c, v); });
          }
          break;
        case Variant::kTsxCoarsen:
          for (std::size_t base = i0; base < i1; base += gran) {
            const std::size_t end = std::min(i1, base + gran);
            std::vector<std::size_t> batch;
            std::vector<sync::SpinLock*> set;
            for (std::size_t i = base; i < end; ++i) {
              gain_cost();
              batch.push_back(pick_vertex(prng));
              set.push_back(&locks[batch.back()]);
            }
            lockset.critical(c, set, [&] {
              for (std::size_t v : batch) update_vertex(c, v);
            });
          }
          break;
        case Variant::kConflictFree:
          throw sim::SimError("graphcluster has no conflict-free variant");
      }
    }
  });

  // Invariant: every vertex was updated n_rounds times in total, so the
  // cut-cost accumulators are bounded; verify cluster ids are in range.
  bool ok = true;
  for (std::size_t v = 0; v < n_vertices; ++v) {
    if (cluster_at(v).peek(m) >= 16) ok = false;
  }
  r.checksum = ok ? 0x6C : 0;
  return r;
}

}  // namespace tsxhpc::apps
