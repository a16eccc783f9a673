// STAMP genome: gene sequencing. Phase 1 deduplicates the segment pool into
// a hash set (small transactions on hash buckets, low conflict); phase 2
// matches segment overlaps and links them into chains (transactions doing a
// few lookups plus link writes — medium footprint). Table 1: low abort
// rates that rise mainly at 8 threads (HyperThreading pressure).
#include "stamp/common.h"

#include "containers/hashmap.h"

namespace tsxhpc::stamp {

Result run_genome(const Config& cfg) {
  Machine m(cfg.machine);
  TmRuntime rt(m, cfg.backend);
  TxArena arena(m);

  // The "gene" is a cyclic sequence of n_unique segments; the sequencer
  // receives n_segments samples (with duplicates) and must dedup and chain.
  const std::size_t n_unique = scaled(cfg.scale, 3072, 64);
  const std::size_t n_segments = n_unique * 3 / 2;
  // Each segment's nucleotide string lives in shared memory; deduplication
  // COMPARES CONTENT, so every insert transaction reads the segment (real
  // genome's transactional read footprint; at reproduction scale it still
  // fits the L1, hence Table 1's genome deviation in EXPERIMENTS.md).
  constexpr std::size_t kSegmentBytes = 512;  // 8 cache lines

  containers::TmHashMap segments(m, arena, 2048);   // dedup set
  containers::TmHashMap links(m, arena, 2048);      // seg -> successor
  sim::Addr seg_data =
      m.alloc({.name = "genome/segments", .bytes = n_unique * kSegmentBytes});
  {
    Xoshiro256 init_rng(cfg.seed * 7 + 1);
    for (std::size_t i = 0; i < n_unique * kSegmentBytes / 8; ++i) {
      m.heap().write_word(seg_data + i * 8, init_rng.next(), 8);
    }
  }

  // Sampled segment stream: segment i of the gene has key i+1 (nonzero);
  // duplicates are induced by sampling with replacement.
  std::vector<std::uint64_t> stream;
  stream.reserve(n_segments);
  Xoshiro256 rng(cfg.seed);
  for (std::size_t i = 0; i < n_segments; ++i) {
    stream.push_back(1 + rng.next_below(n_unique));
  }

  WorkCounter dedup_work(m, n_segments, 16);
  WorkCounter chain_work(m, n_unique, 16);
  auto phase_flag = Shared<std::uint32_t>::alloc(m, {.name = "genome/phase"}, 0);
  auto arrived = Shared<std::uint32_t>::alloc(m, {.name = "genome/phase"}, 0);

  Result r = run_region(cfg, m, rt, [&](Context& c, TmThread& t) {
    // --- Phase 1: deduplicate segments into the hash set. ---
    std::uint64_t b, e;
    while (dedup_work.next(c, b, e)) {
      for (std::uint64_t i = b; i < e; ++i) {
        const std::uint64_t key = stream[i];
        c.compute(25);  // segment hashing
        t.atomic([&](TmAccess& tm) {
          // Content comparison against the canonical copy: a strided read
          // over the segment's nucleotide string (annotated for the STM).
          std::uint64_t digest = 0;
          const sim::Addr base = seg_data + (key - 1) * kSegmentBytes;
          for (std::size_t w = 0; w < kSegmentBytes / 8; w += 4) {
            digest ^= tm.read(base + w * 8);
          }
          tm.ctx().compute(kSegmentBytes / 32);
          segments.insert(tm, key, digest & 0xFF);
        });
      }
    }
    // Barrier between phases.
    if (arrived.fetch_add(c, 1) + 1 ==
        static_cast<std::uint32_t>(cfg.threads)) {
      phase_flag.store(c, 1);
    } else {
      while (phase_flag.load(c) == 0) c.compute(80);
    }
    // --- Phase 2: link each present segment to its successor (overlap
    // matching: lookup segment, lookup successor, write the link). ---
    while (chain_work.next(c, b, e)) {
      for (std::uint64_t i = b; i < e; ++i) {
        const std::uint64_t key = 1 + i;
        const std::uint64_t succ = 1 + (i + 1) % n_unique;
        c.compute(40);  // overlap comparison
        t.atomic([&](TmAccess& tm) {
          if (segments.contains(tm, key) && segments.contains(tm, succ)) {
            links.insert(tm, key, succ);
          }
        });
      }
    }
  });

  // Checksum: number of unique segments + number of links + sum of link
  // keys — all order-insensitive set contents.
  std::uint64_t unique = 0, chained = 0;
  segments.peek_each(m, [&](std::uint64_t, std::uint64_t) { unique++; });
  links.peek_each(m, [&](std::uint64_t k, std::uint64_t v) {
    chained++;
    r.checksum += k * 31 + v;
  });
  r.checksum += unique * 1000003 + chained;
  return r;
}

}  // namespace tsxhpc::stamp
