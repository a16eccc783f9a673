#include "sim/alloc.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/config.h"
#include "sim/heap.h"

namespace tsxhpc::sim {

namespace {

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Monotone bump placement — the same carve the anonymous path uses, so a
/// bump-strategy heap is bit-for-bit the historic (and baseline) layout.
class BumpStrategy final : public AllocStrategy {
 public:
  Addr place(SharedHeap& heap, const AllocSpec& spec) override {
    return heap.bump_place(spec.bytes, spec.align);
  }
};

/// Per-(name, size-class) slabs: repeated allocations under one name share
/// fixed-slot chunks, the way a production slab malloc clusters same-type
/// objects — and the way the Dice et al. placement study's "malloc groups
/// same-size requests" regime arises. Slab interiors sit below the bump
/// frontier once another name has allocated in between, so this strategy
/// issues addresses out of order (the region registry's sorted insert and
/// region_of's binary search are exercised by exactly this).
class SlabStrategy final : public AllocStrategy {
 public:
  explicit SlabStrategy(const AllocGeometry& geom) : geom_(geom) {}
  Addr place(SharedHeap& heap, const AllocSpec& spec) override {
    std::size_t slot = next_pow2(std::max<std::size_t>(spec.bytes, 16));
    if (slot < spec.align) slot = next_pow2(spec.align);
    if (slot > kMaxSlotBytes) {
      // Huge objects get their own line-aligned extent; slabbing them would
      // only add a mostly-empty chunk tail.
      return heap.bump_place(spec.bytes,
                             std::max<std::size_t>(spec.align,
                                                   geom_.line_bytes));
    }
    const std::string key =
        std::string(spec.name) + '#' + std::to_string(slot);
    Slab& slab = slabs_[key];
    if (slab.next + slot > slab.end) {
      const std::size_t chunk = slot * kSlotsPerChunk;
      const Addr base = heap.bump_place(
          chunk, std::max<std::size_t>(spec.align, geom_.line_bytes));
      slab.next = base;
      slab.end = base + chunk;
    }
    const Addr a = slab.next;
    slab.next += slot;
    return heap.place_at(a, spec.bytes);
  }

 private:
  static constexpr std::size_t kMaxSlotBytes = 16 * 1024;
  static constexpr std::size_t kSlotsPerChunk = 16;

  struct Slab {
    Addr next = 0;
    Addr end = 0;  // next == end == 0 forces a fresh chunk on first use
  };

  AllocGeometry geom_;
  std::unordered_map<std::string, Slab> slabs_;
};

/// Least-loaded cache-index coloring. The strategy tracks, per LLC set, how
/// many named-object lines have been placed there (kHot lines count 4x) and
/// starts each new object at the color that minimizes the maximum resulting
/// pressure over the sets the object will cover. An object's *base* line
/// counts extra (kBaseBoost) on top of its uniform footprint: bases are
/// where same-stride layouts stack (every page-multiple sibling lands its
/// line 0 in one set) and where access patterns concentrate (headers,
/// counters, first elements) — without the boost, an object spanning a
/// whole-set-count multiple of lines would load every color equally and the
/// choice would collapse to a tie. Ties resolve toward the bump frontier,
/// so on flat pressure the layout degenerates to set-aligned bump placement
/// and only deviates to dodge a stack-up — e.g. sibling arrays whose sizes
/// are multiples of the set span (the classic page-aligned-malloc
/// pathology) get rotated into disjoint index ranges instead of overlaying
/// the same sets.
///
/// Colors are keyed to the LLC set map (read-set capacity is an LLC
/// property); with the default geometry the L1 has the same set count, so
/// L1 write-set spreading follows for free.
///
/// On a sliced LLC (AllocGeometry::llc_slices > 1) pressure is tracked per
/// (slice, in-slice set) bucket — read-set capacity is a property of the
/// *owning slice's* set, and the slice hash scatters consecutive lines, so
/// the single-table wrap arithmetic below would steer against a geometry
/// that no longer exists. The sliced path shares the llc_slice_of_line hash
/// with MemorySystem; the single-slice path is bit-for-bit the historic
/// coloring (the committed baselines' layout under --alloc=color).
class ColorStrategy final : public AllocStrategy {
 public:
  explicit ColorStrategy(const AllocGeometry& geom)
      : geom_(geom),
        pressure_(static_cast<std::size_t>(geom.llc_sets) *
                      std::max(geom.llc_slices, 1),
                  0) {}
  Addr place(SharedHeap& heap, const AllocSpec& spec) override {
    const std::uint32_t sets = geom_.llc_sets;
    const std::uint64_t w = spec.hint == AllocHint::kHot ? 4 : 1;
    if (spec.hint == AllocHint::kCold || spec.align > geom_.line_bytes) {
      // Cold objects don't earn a color lane (and over-aligned requests
      // cannot be line-steered); both still deposit pressure where they
      // land so later hot objects avoid them.
      const Addr a = heap.bump_place(spec.bytes, spec.align);
      deposit(line_of(a), lines_of(a, spec.bytes), w);
      return a;
    }
    const std::uint64_t lines =
        (spec.bytes + geom_.line_bytes - 1) / geom_.line_bytes;
    if (geom_.llc_slices > 1) return place_sliced(heap, spec, w, lines);
    // First line the object could start on: the bump frontier rounded up to
    // a line boundary (colored bases are line-aligned by construction, which
    // also satisfies any power-of-two align <= line_bytes).
    const Addr first_line =
        (heap.brk() + geom_.line_bytes - 1) / geom_.line_bytes;
    const std::uint64_t base_add = lines / sets;  // full wraps cover all sets
    const std::uint32_t rem = static_cast<std::uint32_t>(lines % sets);

    std::uint64_t best_cost = ~std::uint64_t{0};
    std::uint64_t best_gap = ~std::uint64_t{0};
    for (std::uint32_t c = 0; c < sets; ++c) {
      std::uint64_t cost = 0;
      for (std::uint32_t s = 0; s < sets; ++s) {
        const bool in_rem =
            rem != 0 && ((s + sets - c) & (sets - 1)) < rem;
        const std::uint64_t p = pressure_[s] +
                                w * (base_add + (in_rem ? 1 : 0)) +
                                (s == c ? kBaseBoost * w : 0);
        cost = std::max(cost, p);
      }
      const std::uint64_t gap =
          (c + sets - static_cast<std::uint32_t>(first_line & (sets - 1))) &
          (sets - 1);
      if (cost < best_cost || (cost == best_cost && gap < best_gap)) {
        best_cost = cost;
        best_gap = gap;
      }
    }
    const Addr start_line = first_line + best_gap;
    const Addr a = heap.place_at(start_line * geom_.line_bytes, spec.bytes);
    deposit(start_line, lines, w);
    return a;
  }

 private:
  Addr line_of(Addr a) const { return a / geom_.line_bytes; }
  std::uint64_t lines_of(Addr a, std::size_t bytes) const {
    return line_of(a + bytes - 1) - line_of(a) + 1;
  }
  /// Pressure bucket of a line: (owning slice, in-slice set). Degenerates
  /// to the plain set index on a single-slice geometry.
  std::size_t bucket(Addr line) const {
    return static_cast<std::size_t>(
               llc_slice_of_line(line, geom_.llc_slices)) *
               geom_.llc_sets +
           (static_cast<std::uint32_t>(line) & (geom_.llc_sets - 1));
  }
  void deposit(Addr start_line, std::uint64_t lines, std::uint64_t w) {
    for (std::uint64_t i = 0; i < lines; ++i) {
      pressure_[bucket(start_line + i)] += w;
    }
    pressure_[bucket(start_line)] += kBaseBoost * w;
  }

  /// Slice-aware placement: try every base color (line-aligned start within
  /// one set wrap of the bump frontier), score each candidate by the max
  /// pressure over the (slice, set) buckets the object would deposit into,
  /// and take the lowest-cost candidate (ties toward the bump frontier).
  /// Scoring walks real line->bucket mappings via the hash instead of the
  /// single-slice wrap arithmetic; evaluation is capped at two full machine
  /// wraps — beyond that every candidate loads the buckets near-uniformly.
  Addr place_sliced(SharedHeap& heap, const AllocSpec& spec, std::uint64_t w,
                    std::uint64_t lines) {
    const std::uint32_t sets = geom_.llc_sets;
    const Addr first_line =
        (heap.brk() + geom_.line_bytes - 1) / geom_.line_bytes;
    const std::uint64_t eval_lines = std::min<std::uint64_t>(
        lines, 2ull * geom_.llc_slices * sets);
    std::unordered_map<std::size_t, std::uint64_t> add;
    std::uint64_t best_cost = ~std::uint64_t{0};
    std::uint32_t best_gap = 0;
    for (std::uint32_t gap = 0; gap < sets; ++gap) {
      const Addr start = first_line + gap;
      add.clear();
      for (std::uint64_t i = 0; i < eval_lines; ++i) {
        add[bucket(start + i)] += w;
      }
      add[bucket(start)] += kBaseBoost * w;
      std::uint64_t cost = 0;
      for (const auto& [b, extra] : add) {
        cost = std::max(cost, pressure_[b] + extra);
      }
      if (cost < best_cost) {
        best_cost = cost;
        best_gap = gap;
      }
    }
    const Addr start_line = first_line + best_gap;
    const Addr a = heap.place_at(start_line * geom_.line_bytes, spec.bytes);
    deposit(start_line, lines, w);
    return a;
  }

  static constexpr std::uint64_t kBaseBoost = 2;

  AllocGeometry geom_;
  std::vector<std::uint64_t> pressure_;
};

/// Deliberate same-set packing: every named object's base line is forced to
/// line index 0 modulo max(l1_sets, llc_sets) — both set counts are powers
/// of two, so every base lands in set 0 of *both* levels. N hot objects
/// whose footprints fit a set span then stack N deep in one set: the
/// malloc-placement pathology as a reproducible stress baseline.
class AdversarialStrategy final : public AllocStrategy {
 public:
  explicit AdversarialStrategy(const AllocGeometry& geom) : geom_(geom) {}
  Addr place(SharedHeap& heap, const AllocSpec& spec) override {
    if (spec.align > geom_.line_bytes) {
      return heap.bump_place(spec.bytes, spec.align);
    }
    const Addr stride = std::max(geom_.l1_sets, geom_.llc_sets);
    const Addr first_line =
        (heap.brk() + geom_.line_bytes - 1) / geom_.line_bytes;
    const Addr target_line = (first_line + stride - 1) / stride * stride;
    return heap.place_at(target_line * geom_.line_bytes, spec.bytes);
  }

 private:
  AllocGeometry geom_;
};

}  // namespace

std::unique_ptr<AllocStrategy> make_alloc_strategy(AllocStrategyKind kind,
                                                   const AllocGeometry& geom) {
  switch (kind) {
    case AllocStrategyKind::kBump:
      return std::make_unique<BumpStrategy>();
    case AllocStrategyKind::kSlab:
      return std::make_unique<SlabStrategy>(geom);
    case AllocStrategyKind::kColor:
      return std::make_unique<ColorStrategy>(geom);
    case AllocStrategyKind::kAdversarial:
      return std::make_unique<AdversarialStrategy>(geom);
  }
  throw SimError("unknown allocation strategy");
}

}  // namespace tsxhpc::sim
