// The placement-aware allocation layer of the shared heap.
//
// Dice et al., "The Influence of Malloc Placement on TSX Hardware
// Transactional Memory" show that *where* the allocator puts objects — via
// cache-index conflicts and set overflow — swings TSX abort rates by integer
// factors. The repo's capacity model is set-associative (write-set capacity
// = L1 set overflow, read-set capacity = LLC set eviction pressure; DESIGN.md
// §4.1/§10), so placement is a first-class experimental knob here too.
//
// Two pieces live in this header:
//
//   * AllocSpec — the one allocation request record behind the unified
//     Machine::alloc(AllocSpec) entry point (the sole spelling since the
//     pre-AllocSpec shims were removed);
//   * AllocStrategy — the pluggable placement seam inside SharedHeap.
//     Strategies choose base addresses for *named* allocations only; unnamed
//     allocations always take the plain bump path, so infrastructure
//     allocations (container nodes, scratch) never depend on the strategy.
//
// Shipped strategies (MachineConfig::alloc_strategy, bench `--alloc=`):
//
//   bump        monotone bump pointer — bit-for-bit the historic layout;
//               the default, and the layout every committed baseline uses.
//   slab        per-(name, size-class) slabs: repeated allocations under one
//               name group into shared chunks, the way a production slab
//               malloc clusters same-type objects. Issues addresses out of
//               order (slab interiors sit below the bump frontier).
//   color       cache-index coloring: each named object's base line is
//               steered to the LLC-set color that minimizes the maximum
//               per-set line pressure over the sets the object will cover,
//               spreading hot objects across L1/LLC sets instead of letting
//               coincidental size sums stack their footprints into the same
//               index range. Ties resolve toward the bump frontier, so flat
//               pressure degenerates to (set-aligned) bump placement.
//   adversarial deliberate same-set packing: every named object's base line
//               is forced into set 0 of both levels — the malloc-placement
//               pathology made reproducible, as the stress baseline the
//               ablation compares against.
//
// Determinism: strategies are pure functions of the allocation sequence and
// the configured geometry. No host state, no randomness — layouts are
// byte-identical across runs, hosts and execution backends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "sim/types.h"

namespace tsxhpc::sim {

class SharedHeap;

/// Placement hint on an AllocSpec. Only non-bump strategies look at it, so
/// annotating a workload never perturbs the default layout.
enum class AllocHint : std::uint8_t {
  kAuto,  ///< strategy default
  kHot,   ///< transactionally hot: coloring weighs its set pressure 4x, so
          ///< later objects steer clear of its index range
  kCold,  ///< rarely touched: coloring leaves it on the bump path instead of
          ///< spending a color lane on it
};

/// One allocation request — the unified argument of Machine::alloc and
/// SharedHeap::allocate. Designated initializers keep call sites readable:
///
///   m.alloc({.name = "kmeans/accum", .bytes = 1024});
///   SharedArray<double>::alloc(m, {.name = "kmeans/accum",
///                                  .hint = AllocHint::kHot}, n);
///
/// An empty name is an anonymous allocation: no registry entry, no telemetry
/// attribution, and always bump-placed whatever the strategy.
struct AllocSpec {
  std::string_view name{};
  std::size_t bytes = 0;
  /// Power-of-two alignment; 0 = the caller-level default (Machine::alloc
  /// fills in one cache line, SharedHeap::allocate falls back to 8).
  std::size_t align = 0;
  AllocHint hint = AllocHint::kAuto;
};

/// Which placement strategy the shared heap runs (MachineConfig, --alloc=).
enum class AllocStrategyKind : std::uint8_t {
  kBump,         // monotone bump pointer (default; the historic layout)
  kSlab,         // per-(name, size-class) slabs
  kColor,        // least-loaded cache-index coloring
  kAdversarial,  // same-set packing stress baseline
};

inline const char* to_string(AllocStrategyKind kind) {
  switch (kind) {
    case AllocStrategyKind::kBump: return "bump";
    case AllocStrategyKind::kSlab: return "slab";
    case AllocStrategyKind::kColor: return "color";
    case AllocStrategyKind::kAdversarial: return "adversarial";
  }
  return "?";
}

/// Parse an `--alloc=` value; returns false (leaving `out` untouched) on an
/// unknown name so callers can print the valid set.
inline bool alloc_strategy_from_string(const std::string& s,
                                       AllocStrategyKind& out) {
  if (s == "bump") out = AllocStrategyKind::kBump;
  else if (s == "slab") out = AllocStrategyKind::kSlab;
  else if (s == "color") out = AllocStrategyKind::kColor;
  else if (s == "adversarial") out = AllocStrategyKind::kAdversarial;
  else return false;
  return true;
}

/// The cache geometry a placement strategy steers against — a value copy of
/// the MachineConfig fields that determine line->set (and line->slice)
/// mapping, so the strategy layer does not depend on the full machine
/// config. llc_sets/llc_ways describe one slice; llc_slices is the machine
/// total (1 = the classic monolithic LLC), and strategies share the
/// llc_slice_of_line hash with MemorySystem.
struct AllocGeometry {
  std::uint32_t line_bytes = 64;
  std::uint32_t l1_sets = 64;
  std::uint32_t l1_ways = 8;
  std::uint32_t llc_sets = 64;
  std::uint32_t llc_ways = 10;
  int llc_slices = 1;
};

/// Placement policy for *named* shared-heap allocations. place() returns the
/// base address for `spec` and may reserve backing pages through the heap's
/// low-level carving API (SharedHeap::bump_place / place_at). Called outside
/// the timed region (allocation is setup-phase work), single-threaded.
class AllocStrategy {
 public:
  virtual ~AllocStrategy() = default;
  virtual Addr place(SharedHeap& heap, const AllocSpec& spec) = 0;
};

/// Strategy factory. Every kind returns a fresh stateful instance; kBump's
/// place() is the same bump carve the anonymous path uses, so a bump heap is
/// bit-for-bit identical to a heap with no strategy attached.
std::unique_ptr<AllocStrategy> make_alloc_strategy(AllocStrategyKind kind,
                                                   const AllocGeometry& geom);

}  // namespace tsxhpc::sim
