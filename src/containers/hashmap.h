// TmHashMap: fixed-bucket chained hash map over TmAccess. Models STAMP's
// hashtable (genome's segment dedup, vacation/intruder lookup tables):
// bucket heads live in one shared array; chains are TmList-style nodes.
#pragma once

#include <cstdint>
#include <optional>

#include "containers/arena.h"
#include "sim/rng.h"
#include "tmlib/tm.h"

namespace tsxhpc::containers {

using tmlib::TmAccess;

class TmHashMap {
 public:
  /// Node layout: [0]=next, [8]=key, [16]=value.
  static constexpr std::size_t kNodeBytes = 24;

  TmHashMap() = default;
  /// `buckets` must be a power of two.
  TmHashMap(Machine& m, TxArena& arena, std::size_t buckets)
      : arena_(&arena), mask_(buckets - 1) {
    if ((buckets & (buckets - 1)) != 0) {
      throw sim::SimError("TmHashMap bucket count must be a power of two");
    }
    buckets_ = m.alloc({.name = "hashmap/buckets", .bytes = buckets * 8});
    for (std::size_t i = 0; i < buckets; ++i) {
      m.heap().write_word(buckets_ + i * 8, 0, 8);
    }
  }

  /// Insert; returns false (no mutation) if the key already exists.
  bool insert(TmAccess& tm, std::uint64_t key, std::uint64_t value) {
    const Addr bucket = bucket_of(key);
    Addr cur = tm.read(bucket);
    while (cur != 0) {
      if (tm.read(cur + 8) == key) return false;
      cur = tm.read(cur);
    }
    const Addr node = tm.alloc(*arena_, kNodeBytes);
    tm.write(node, tm.read(bucket));
    tm.write(node + 8, key);
    tm.write(node + 16, value);
    tm.write(bucket, static_cast<std::uint64_t>(node));
    return true;
  }

  /// Insert or overwrite; returns true if the key was new.
  bool put(TmAccess& tm, std::uint64_t key, std::uint64_t value) {
    const Addr bucket = bucket_of(key);
    Addr cur = tm.read(bucket);
    while (cur != 0) {
      if (tm.read(cur + 8) == key) {
        tm.write(cur + 16, value);
        return false;
      }
      cur = tm.read(cur);
    }
    const Addr node = tm.alloc(*arena_, kNodeBytes);
    tm.write(node, tm.read(bucket));
    tm.write(node + 8, key);
    tm.write(node + 16, value);
    tm.write(bucket, static_cast<std::uint64_t>(node));
    return true;
  }

  std::optional<std::uint64_t> find(TmAccess& tm, std::uint64_t key) const {
    Addr cur = tm.read(bucket_of(key));
    while (cur != 0) {
      if (tm.read(cur + 8) == key) return tm.read(cur + 16);
      cur = tm.read(cur);
    }
    return std::nullopt;
  }

  bool contains(TmAccess& tm, std::uint64_t key) const {
    return find(tm, key).has_value();
  }

  std::optional<std::uint64_t> remove(TmAccess& tm, std::uint64_t key) {
    const Addr bucket = bucket_of(key);
    Addr prev = bucket;
    Addr cur = tm.read(prev);
    while (cur != 0) {
      if (tm.read(cur + 8) == key) {
        const std::uint64_t value = tm.read(cur + 16);
        tm.write(prev, tm.read(cur));
        tm.free(*arena_, cur, kNodeBytes);
        return value;
      }
      prev = cur;
      cur = tm.read(cur);
    }
    return std::nullopt;
  }

  /// Untimed full scan (verification outside the measured region).
  template <typename Fn>
  void peek_each(Machine& m, Fn&& fn) const {
    for (std::size_t b = 0; b <= mask_; ++b) {
      Addr cur = m.heap().read_word(buckets_ + b * 8, 8);
      while (cur != 0) {
        fn(m.heap().read_word(cur + 8, 8), m.heap().read_word(cur + 16, 8));
        cur = m.heap().read_word(cur, 8);
      }
    }
  }

 private:
  Addr bucket_of(std::uint64_t key) const {
    sim::SplitMix64 h(key);
    return buckets_ + (h.next() & mask_) * 8;
  }

  TxArena* arena_ = nullptr;
  Addr buckets_ = sim::kNullAddr;
  std::size_t mask_ = 0;
};

}  // namespace tsxhpc::containers
