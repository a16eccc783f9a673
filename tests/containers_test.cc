// Property tests for the transact-aware containers: randomized operation
// sequences checked against std:: reference models, across all TM backends
// and under multi-threaded contention.
#include <gtest/gtest.h>

#include <map>
#include <queue>
#include <set>

#include "containers/arena.h"
#include "containers/hashmap.h"
#include "containers/heap.h"
#include "containers/list.h"
#include "containers/queue.h"
#include "containers/treap.h"
#include "sim/rng.h"

namespace tsxhpc::containers {
namespace {

using sim::Context;
using sim::Machine;
using tmlib::Backend;
using tmlib::TmAccess;
using tmlib::TmRuntime;
using tmlib::TmThread;

class ContainerBackends : public ::testing::TestWithParam<Backend> {};

TEST_P(ContainerBackends, ListMatchesReferenceModel) {
  Machine m;
  TmRuntime rt(m, GetParam());
  TxArena arena(m);
  TmList list(m, arena);
  std::map<std::uint64_t, std::uint64_t> model;
  m.run({.threads = 1, .body = [&](Context& c) {
    TmThread t(rt, c);
    sim::Xoshiro256 rng(11);
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t key = rng.next_below(60);
      const std::uint64_t val = rng.next();
      const int op = static_cast<int>(rng.next_below(3));
      t.atomic([&](TmAccess& tm) {
        switch (op) {
          case 0: {
            const bool inserted = list.insert(tm, key, val);
            EXPECT_EQ(inserted, !model.count(key));
            if (inserted) model[key] = val;
            break;
          }
          case 1: {
            const auto removed = list.remove(tm, key);
            const auto it = model.find(key);
            EXPECT_EQ(removed.has_value(), it != model.end());
            if (removed) {
              EXPECT_EQ(*removed, it->second);
              model.erase(it);
            }
            break;
          }
          default: {
            const auto found = list.find(tm, key);
            const auto it = model.find(key);
            EXPECT_EQ(found.has_value(), it != model.end());
            if (found) {
              EXPECT_EQ(*found, it->second);
            }
          }
        }
      });
    }
    // Full-content check: in-order iteration matches the sorted model.
    t.atomic([&](TmAccess& tm) {
      auto it = model.begin();
      list.for_each(tm, [&](std::uint64_t k, std::uint64_t v) {
        EXPECT_NE(it, model.end());
        EXPECT_EQ(k, it->first);
        EXPECT_EQ(v, it->second);
        ++it;
        return true;
      });
      EXPECT_EQ(it, model.end());
      EXPECT_EQ(list.size(tm), model.size());
    });
  }});
}

TEST_P(ContainerBackends, TreapMatchesReferenceModel) {
  Machine m;
  TmRuntime rt(m, GetParam());
  TxArena arena(m);
  TmMap map(m, arena);
  std::map<std::uint64_t, std::uint64_t> model;
  m.run({.threads = 1, .body = [&](Context& c) {
    TmThread t(rt, c);
    sim::Xoshiro256 rng(23);
    for (int i = 0; i < 800; ++i) {
      const std::uint64_t key = rng.next_below(200);
      const std::uint64_t val = rng.next();
      const int op = static_cast<int>(rng.next_below(4));
      t.atomic([&](TmAccess& tm) {
        switch (op) {
          case 0: {
            const bool inserted = map.insert(tm, key, val);
            EXPECT_EQ(inserted, !model.count(key));
            if (inserted) model[key] = val;
            break;
          }
          case 1: {
            const auto removed = map.remove(tm, key);
            EXPECT_EQ(removed.has_value(), model.count(key) > 0);
            if (removed) {
              EXPECT_EQ(*removed, model[key]);
              model.erase(key);
            }
            break;
          }
          case 2: {
            const auto found = map.find(tm, key);
            EXPECT_EQ(found.has_value(), model.count(key) > 0);
            if (found) {
              EXPECT_EQ(*found, model[key]);
            }
            break;
          }
          default: {
            const auto ceil = map.ceil_key(tm, key);
            const auto it = model.lower_bound(key);
            EXPECT_EQ(ceil.has_value(), it != model.end());
            if (ceil) {
              EXPECT_EQ(*ceil, it->first);
            }
          }
        }
      });
    }
  }});
  // Structural check: in-order traversal is sorted and complete.
  std::vector<std::uint64_t> keys;
  map.peek_inorder(m, [&](std::uint64_t k, std::uint64_t) {
    keys.push_back(k);
  });
  ASSERT_EQ(keys.size(), model.size());
  auto it = model.begin();
  for (std::size_t i = 0; i < keys.size(); ++i, ++it) {
    EXPECT_EQ(keys[i], it->first);
  }
}

TEST_P(ContainerBackends, HashMapMatchesReferenceModel) {
  Machine m;
  TmRuntime rt(m, GetParam());
  TxArena arena(m);
  TmHashMap map(m, arena, 64);
  std::map<std::uint64_t, std::uint64_t> model;
  m.run({.threads = 1, .body = [&](Context& c) {
    TmThread t(rt, c);
    sim::Xoshiro256 rng(37);
    for (int i = 0; i < 600; ++i) {
      const std::uint64_t key = rng.next_below(150);
      const std::uint64_t val = rng.next();
      const int op = static_cast<int>(rng.next_below(4));
      t.atomic([&](TmAccess& tm) {
        switch (op) {
          case 0:
            EXPECT_EQ(map.insert(tm, key, val), !model.count(key));
            if (!model.count(key)) model[key] = val;
            break;
          case 1:
            map.put(tm, key, val);
            model[key] = val;
            break;
          case 2: {
            const auto removed = map.remove(tm, key);
            EXPECT_EQ(removed.has_value(), model.count(key) > 0);
            if (removed) model.erase(key);
            break;
          }
          default: {
            const auto found = map.find(tm, key);
            EXPECT_EQ(found.has_value(), model.count(key) > 0);
            if (found) {
              EXPECT_EQ(*found, model[key]);
            }
          }
        }
      });
    }
  }});
  std::size_t n = 0;
  map.peek_each(m, [&](std::uint64_t k, std::uint64_t v) {
    EXPECT_EQ(model[k], v);
    ++n;
  });
  EXPECT_EQ(n, model.size());
}

TEST_P(ContainerBackends, QueueIsFifo) {
  Machine m;
  TmRuntime rt(m, GetParam());
  TxArena arena(m);
  TmQueue q(m, arena);
  m.run({.threads = 1, .body = [&](Context& c) {
    TmThread t(rt, c);
    std::queue<std::uint64_t> model;
    sim::Xoshiro256 rng(5);
    for (int i = 0; i < 500; ++i) {
      t.atomic([&](TmAccess& tm) {
        if (rng.next_bool(0.55)) {
          const std::uint64_t v = rng.next();
          q.push(tm, v);
          model.push(v);
        } else {
          const auto popped = q.pop(tm);
          EXPECT_EQ(popped.has_value(), !model.empty());
          if (popped) {
            EXPECT_EQ(*popped, model.front());
            model.pop();
          }
        }
        EXPECT_EQ(q.size(tm), model.size());
      });
    }
  }});
}

TEST_P(ContainerBackends, HeapPopsInSortedOrder) {
  Machine m;
  TmRuntime rt(m, GetParam());
  TmHeap heap(m, 256);
  m.run({.threads = 1, .body = [&](Context& c) {
    TmThread t(rt, c);
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        model;
    sim::Xoshiro256 rng(71);
    for (int i = 0; i < 600; ++i) {
      t.atomic([&](TmAccess& tm) {
        if (rng.next_bool(0.6) && model.size() < 256) {
          const std::uint64_t v = rng.next_below(10000);
          EXPECT_TRUE(heap.push(tm, v));
          model.push(v);
        } else {
          const auto popped = heap.pop_min(tm);
          EXPECT_EQ(popped.has_value(), !model.empty());
          if (popped) {
            EXPECT_EQ(*popped, model.top());
            model.pop();
          }
        }
      });
    }
  }});
}

TEST_P(ContainerBackends, ConcurrentMapInsertionsAllLand) {
  Machine m;
  TmRuntime rt(m, GetParam());
  TxArena arena(m);
  TmMap map(m, arena);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  m.run({.threads = kThreads, .body = [&](Context& c) {
    TmThread t(rt, c);
    for (int i = 0; i < kPerThread; ++i) {
      const std::uint64_t key = c.tid() * 10000 + i;
      t.atomic([&](TmAccess& tm) { map.insert(tm, key, key * 2); });
    }
  }});
  std::size_t n = 0;
  std::uint64_t prev = 0;
  bool first = true;
  map.peek_inorder(m, [&](std::uint64_t k, std::uint64_t v) {
    EXPECT_EQ(v, k * 2);
    if (!first) {
      EXPECT_GT(k, prev);
    }
    prev = k;
    first = false;
    ++n;
  });
  EXPECT_EQ(n, static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST_P(ContainerBackends, ConcurrentQueueConservesItems) {
  Machine m;
  TmRuntime rt(m, GetParam());
  TxArena arena(m);
  TmQueue q(m, arena);
  auto popped_sum = sim::Shared<std::uint64_t>::alloc(m, 0);
  auto popped_count = sim::Shared<std::uint64_t>::alloc(m, 0);
  constexpr int kItems = 120;
  for (int i = 1; i <= kItems; ++i) q.seed(m, i);
  m.run({.threads = 4, .body = [&](Context& c) {
    TmThread t(rt, c);
    for (;;) {
      bool done = false;
      t.atomic([&](TmAccess& tm) {
        done = false;  // body may re-execute after an abort
        const auto v = q.pop(tm);
        if (!v) {
          done = true;
          return;
        }
        // Must be annotated accesses: an unannotated (plain) store inside a
        // TL2 transaction would survive an abort and double-count.
        tm.write(popped_sum.addr(), tm.read(popped_sum.addr()) + *v);
        tm.write(popped_count.addr(), tm.read(popped_count.addr()) + 1);
      });
      if (done) break;
    }
  }});
  EXPECT_EQ(popped_count.peek(m), static_cast<std::uint64_t>(kItems));
  EXPECT_EQ(popped_sum.peek(m),
            static_cast<std::uint64_t>(kItems) * (kItems + 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ContainerBackends,
                         ::testing::Values(Backend::kSgl, Backend::kTl2,
                                           Backend::kTsx, Backend::kTicToc,
                                           Backend::kTicTocHybrid,
                                           Backend::kMvcc),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           std::string name = to_string(info.param);
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(TxArena, ReusesFreedBlocksOutsideTxn) {
  Machine m;
  TxArena arena(m);
  m.run({.threads = 1, .body = [&](Context& c) {
    sim::Addr a = arena.alloc(c, 24);
    arena.free(c, a, 24);
    sim::Addr b = arena.alloc(c, 24);
    EXPECT_EQ(a, b) << "free list reuse";
  }});
}

TEST(TxArena, FreeInsideTxnDoesNotRecycle) {
  Machine m;
  TxArena arena(m);
  m.run({.threads = 1, .body = [&](Context& c) {
    sim::Addr a = arena.alloc(c, 24);
    c.xbegin();
    arena.free(c, a, 24);  // deferred (leaked): txn may abort
    c.xend();
    sim::Addr b = arena.alloc(c, 24);
    EXPECT_NE(a, b);
  }});
}

TEST(TxArena, AllocZeroes) {
  Machine m;
  TxArena arena(m);
  m.run({.threads = 1, .body = [&](Context& c) {
    sim::Addr a = arena.alloc(c, 64);
    m.heap().write_word(a, 0xFF, 8);
    arena.free(c, a, 64);
    sim::Addr b = arena.alloc(c, 64);
    ASSERT_EQ(a, b);
    EXPECT_EQ(m.heap().read_word(b, 8), 0u);
  }});
}

}  // namespace
}  // namespace tsxhpc::containers
