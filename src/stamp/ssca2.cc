// STAMP ssca2: Kernel 1 of the SSCA2 graph benchmark — parallel construction
// of the graph's adjacency structure. Transactions are tiny (append one edge
// to a vertex's list: read a count, write a slot, bump the count) and the
// target vertices are spread over a large range, so conflicts are rare —
// Table 1 shows ~0-1% abort rates at every thread count.
#include "stamp/common.h"

namespace tsxhpc::stamp {

Result run_ssca2(const Config& cfg) {
  Machine m(cfg.machine);
  TmRuntime rt(m, cfg.backend);

  const std::size_t n_vertices = scaled(cfg.scale, 4096, 64);
  const std::size_t n_edges = scaled(cfg.scale, 16384, 256);
  constexpr std::size_t kMaxDegree = 32;

  // Per-vertex degree counts and fixed-capacity neighbor slot arrays.
  auto degree = SharedArray<std::uint64_t>::alloc(m, {.name = "ssca2/degree"}, n_vertices, 0);
  auto slots = SharedArray<std::uint64_t>::alloc(m, {.name = "ssca2/slots"}, n_vertices * kMaxDegree, 0);

  // Pre-generate the edge list (Kernel 1's input tuples).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(n_edges);
  Xoshiro256 rng(cfg.seed);
  for (std::size_t e = 0; e < n_edges; ++e) {
    const auto u = static_cast<std::uint32_t>(rng.next_below(n_vertices));
    const auto v = static_cast<std::uint32_t>(rng.next_below(n_vertices));
    edges.emplace_back(u, v);
  }

  WorkCounter work(m, n_edges, 16);
  Result r = run_region(cfg, m, rt, [&](Context& c, TmThread& t) {
    std::uint64_t b, e;
    while (work.next(c, b, e)) {
      for (std::uint64_t i = b; i < e; ++i) {
        const auto [u, v] = edges[i];
        c.compute(20);  // tuple decode / hashing
        t.atomic([&](TmAccess& tm) {
          const std::uint64_t d = tm.read(degree.addr(u));
          if (d < kMaxDegree) {
            tm.write(slots.addr(u * kMaxDegree + d), v + 1);
            tm.write(degree.addr(u), d + 1);
          }
        });
      }
    }
  });

  // Checksum: total degree plus sum of stored neighbors (order-insensitive).
  for (std::size_t v = 0; v < n_vertices; ++v) {
    const std::uint64_t d = degree.at(v).peek(m);
    r.checksum += d;
    for (std::uint64_t i = 0; i < d; ++i) {
      r.checksum += slots.at(v * kMaxDegree + i).peek(m);
    }
  }
  return r;
}

}  // namespace tsxhpc::stamp
