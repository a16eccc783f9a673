#include "perfbench/reference.h"

#include <algorithm>
#include <utility>

#include "perfbench/spans.h"

namespace tsxhpc::perfbench {
namespace {

constexpr int kSets = 64;

/// LRU touch of `tag` in a set-associative array; returns whether it hit.
using Kernel = Reference::Kernel;

bool touch(std::vector<Kernel::Line>& cache, int ways, std::uint64_t tag,
           std::uint64_t* tick) {
  Kernel::Line* set = &cache[(tag % kSets) * ways];
  Kernel::Line* victim = set;
  for (int w = 0; w < ways; ++w) {
    if (set[w].valid && set[w].tag == tag) {
      set[w].lru = ++*tick;
      return true;
    }
    if (!set[w].valid || set[w].lru < victim->lru) victim = &set[w];
  }
  *victim = Kernel::Line{tag, ++*tick, true};
  return false;
}

// 128 distinct small operations reached through a function table, so the
// kernel has a code footprint and indirect branches to predict, like the
// simulator's dispatch through Context, MemorySystem and the CC hooks.
template <int K>
__attribute__((noinline)) std::uint64_t op(Kernel& r, std::uint64_t x) {
  std::uint64_t acc = x * (K + 1);
  if constexpr (K % 4 == 0) {
    const std::uint64_t tag = (x >> 8) % 4096;
    if (!touch(r.l1[K % 8], 8, tag, &r.tick)) touch(r.l2, 10, tag, &r.tick);
  } else if constexpr (K % 4 == 1) {
    const std::uint64_t key = (x >> 8) % 8192;
    if ((x >> 3) & 1) {
      r.owners[key] |= std::uint64_t{1} << (K % 64);
    } else if (auto it = r.owners.find(key); it != r.owners.end()) {
      acc += it->second;
      r.owners.erase(it);
    }
  } else if constexpr (K % 4 == 2) {
    acc += r.heap[(x >> 3) % r.heap.size()];
    r.heap[(x >> 17) % r.heap.size()] = acc;
  } else {
    for (int i = 0; i < K % 7 + 3; ++i) {
      acc = (acc ^ (acc >> 13)) * 0x9E3779B97F4A7C15ULL + i;
    }
  }
  return acc;
}

using Op = std::uint64_t (*)(Kernel&, std::uint64_t);

template <std::size_t... I>
constexpr std::array<Op, sizeof...(I)> op_table(std::index_sequence<I...>) {
  return {&op<static_cast<int>(I)>...};
}

constexpr auto kOps = op_table(std::make_index_sequence<128>{});

}  // namespace

Reference::Kernel::Kernel()
    : l1(8, std::vector<Line>(kSets * 8)),
      l2(kSets * 10),
      heap(std::size_t{1} << 17) {}

double Reference::run() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 120000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    acc += kOps[x >> 57](kernel_, x >> 5);
  }
  kernel_.heap[acc % kernel_.heap.size()] ^= acc;  // keep the work observable
  const double s = seconds_since(t0);
  last_[runs_++ % last_.size()] = s;
  return s;
}

double Reference::recent_seconds() const {
  const int n = std::min<int>(runs_, static_cast<int>(last_.size()));
  if (n == 0) return 0.0;
  std::vector<double> v(last_.begin(), last_.begin() + n);
  return median(std::move(v));
}

double Reference::factor() {
  run();
  return kNominalSeconds / recent_seconds();
}

}  // namespace tsxhpc::perfbench
