// The simulated shared heap: a flat virtual address space whose contents are
// the *values* of shared memory. All inter-thread-visible data in a workload
// lives here so that the cache / conflict models see every access.
//
// Allocations go through the unified allocate(AllocSpec) entry point
// (sim/alloc.h). A *named* spec registers the address range in the region
// registry mapping ranges back to workload data structures — which is what
// lets conflict and capacity telemetry say "this abort came from
// `vacation.relations`" instead of printing a bare line address — and is
// placed by the attached AllocStrategy (bump / slab / color / adversarial).
// Anonymous allocations always take the plain bump path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/alloc.h"
#include "sim/types.h"

namespace tsxhpc::sim {

/// Shared address space with pluggable placement for named allocations.
/// Address 0 is reserved (null); the first allocation starts at one full
/// cache line to keep line indices nonzero. Backing storage grows on demand;
/// addresses are stable offsets. With no strategy attached (or the bump
/// strategy), every allocation is a monotone bump — bit-for-bit the layout
/// all committed telemetry baselines were recorded against.
class SharedHeap {
 public:
  explicit SharedHeap(std::uint32_t line_bytes = 64)
      : line_bytes_(line_bytes), brk_(line_bytes) {
    mem_.resize(1 << 20);
  }

  /// Attach the placement strategy for named allocations (null = bump).
  /// MemorySystem installs the MachineConfig::alloc_strategy choice at
  /// construction, before any workload allocates.
  void set_strategy(std::unique_ptr<AllocStrategy> strategy) {
    strategy_ = std::move(strategy);
  }
  /// The unified allocation entry point. A named spec is placed by the
  /// attached strategy and registered for telemetry attribution; an
  /// anonymous spec is bump-placed. align 0 falls back to 8 (the historic
  /// SharedHeap default; Machine::alloc upgrades its own default to a full
  /// cache line before forwarding).
  Addr allocate(const AllocSpec& spec) {
    const std::size_t bytes = spec.bytes == 0 ? 1 : spec.bytes;
    const std::size_t align = spec.align == 0 ? 8 : spec.align;
    Addr a;
    if (strategy_ && !spec.name.empty()) {
      AllocSpec normalized = spec;
      normalized.bytes = bytes;
      normalized.align = align;
      a = strategy_->place(*this, normalized);
    } else {
      a = bump_place(bytes, align);
    }
    if (!spec.name.empty()) register_region(spec.name, a, bytes);
    return a;
  }

  /// Allocate `bytes` with the given alignment (power of two). Anonymous:
  /// never strategy-placed, never registered.
  Addr allocate(std::size_t bytes, std::size_t align = 8) {
    return allocate(AllocSpec{{}, bytes, align, AllocHint::kAuto});
  }

  /// A named allocation registered via a named allocate(AllocSpec).
  struct Region {
    Addr base = 0;
    Addr end = 0;  // one past the last byte
    std::string name;
  };

  /// The named region containing `a`, or null if `a` was never named.
  const Region* region_of(Addr a) const {
    auto it = std::upper_bound(
        regions_.begin(), regions_.end(), a,
        [](Addr x, const Region& r) { return x < r.base; });
    if (it == regions_.begin()) return nullptr;
    --it;
    return a < it->end ? &*it : nullptr;
  }

  /// Name of the allocation containing `a` ("" if unnamed).
  std::string_view name_of(Addr a) const {
    const Region* r = region_of(a);
    return r ? std::string_view(r->name) : std::string_view();
  }

  /// Registered regions, sorted by base address. Under the bump strategy
  /// this coincides with registration order; slab/color issue addresses out
  /// of order, so consumers must not read this as an allocation timeline.
  const std::vector<Region>& regions() const { return regions_; }

  /// First region *registered* under `name`, or null — an O(1) name-index
  /// lookup, so tsx_report --sets object attribution stays cheap on heaps
  /// with thousands of named regions. Lets tests and reports recover a named
  /// object's extent (and therefore its expected set span) without
  /// re-threading base/size through the workload.
  const Region* region_named(std::string_view name) const {
    auto it = name_index_.find(std::string(name));
    return it == name_index_.end() ? nullptr : region_of(it->second);
  }

  // --- Low-level carving API (AllocStrategy implementations only) ---------

  /// Monotone bump carve: the historic allocate() formula, shared by the
  /// anonymous path and the bump strategy so the two can never diverge.
  Addr bump_place(std::size_t bytes, std::size_t align) {
    Addr a = (brk_ + (align - 1)) & ~static_cast<Addr>(align - 1);
    brk_ = a + bytes;
    ensure_capacity(brk_);
    return a;
  }

  /// Carve `bytes` at exactly `at` (which the caller owns: either at/beyond
  /// the bump frontier, or inside a chunk it previously carved). Advances
  /// the frontier past the range when it extends it.
  Addr place_at(Addr at, std::size_t bytes) {
    if (at == kNullAddr) throw SimError("place_at: null address");
    if (at + bytes > brk_) brk_ = at + bytes;
    ensure_capacity(brk_);
    return at;
  }

  /// Current bump frontier (the next bump allocation starts at or above
  /// this). Strategies use it to pick target addresses that stay clear of
  /// already-issued ranges.
  Addr brk() const { return brk_; }

  // Raw, *untimed* value access. The Context routes all timed accesses here
  // after running the coherence/transaction machinery. Tests and workload
  // setup phases may use these directly for initialization.
  std::uint64_t read_word(Addr a, unsigned size) const {
    check(a, size);
    std::uint64_t v = 0;
    std::memcpy(&v, mem_.data() + a, size);
    return v;
  }

  void write_word(Addr a, std::uint64_t v, unsigned size) {
    check(a, size);
    std::memcpy(mem_.data() + a, &v, size);
  }

  void read_bytes(Addr a, void* dst, std::size_t n) const {
    check(a, n);
    std::memcpy(dst, mem_.data() + a, n);
  }

  void write_bytes(Addr a, const void* src, std::size_t n) {
    check(a, n);
    std::memcpy(mem_.data() + a, src, n);
  }

  std::uint32_t line_bytes() const { return line_bytes_; }

 private:
  /// Insert into the registry keeping it sorted by base — slab and color
  /// issue addresses out of order, and region_of's binary search silently
  /// returns wrong regions on an unsorted registry (the historic bump-only
  /// code relied on monotone allocation for sortedness).
  void register_region(std::string_view name, Addr base, std::size_t bytes) {
    Region reg{base, base + bytes, std::string(name)};
    auto it = std::upper_bound(
        regions_.begin(), regions_.end(), base,
        [](Addr x, const Region& r) { return x < r.base; });
    name_index_.emplace(reg.name, base);  // first registration wins
    regions_.insert(it, std::move(reg));
  }

  void ensure_capacity(Addr limit) {
    if (limit + line_bytes_ > mem_.size()) {
      mem_.resize(next_pow2(limit + line_bytes_));
    }
  }

  void check(Addr a, std::size_t n) const {
    // Allow access up to the end of the last allocated cache line: the
    // transactional write buffer merges at word granularity and may read
    // back padding bytes of the final allocation.
    const Addr limit = (brk_ + line_bytes_ - 1) & ~static_cast<Addr>(line_bytes_ - 1);
    if (a == kNullAddr || a + n > limit) {
      throw SimError("shared heap access out of bounds: addr=" +
                     std::to_string(a) + " size=" + std::to_string(n) +
                     " brk=" + std::to_string(brk_));
    }
  }

  static std::size_t next_pow2(std::size_t v) {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  std::uint32_t line_bytes_;
  Addr brk_;
  std::vector<std::uint8_t> mem_;
  std::vector<Region> regions_;  // sorted by base (kept so on insert)
  // name -> base of the first region registered under that name; resolved
  // through region_of so Region pointers never dangle across inserts.
  std::unordered_map<std::string, Addr> name_index_;
  std::unique_ptr<AllocStrategy> strategy_;  // null = bump
};

}  // namespace tsxhpc::sim
