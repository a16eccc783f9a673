// Differential test for CacheLevel: the production level runs in lockstep
// with a naive model written for clarity, not speed — one std::list per set
// in LRU order (front = most recently used) whose nodes carry the line, the
// transactional marks and the directory state as explicit fields. Seeded
// random touch/find/promote/invalidate/clear_tx_marks traffic on every
// geometry of 1-4 sets x 1-10 ways; after each step every CacheTouch field
// and the level's resident/tx-tracked/occupancy views must agree.
#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <random>
#include <string>
#include <vector>

#include "sim/cache.h"

namespace tsxhpc::sim {
namespace {

class NaiveLevel {
 public:
  struct Line {
    Addr line = 0;
    ThreadId tx_writer = -1;
    ThreadMask tx_readers = 0;
    int dirty_core = -1;
    CoreMask sharers = 0;
    TxMasks tx_sets;
  };

  NaiveLevel(std::uint32_t sets, std::uint32_t ways)
      : ways_(ways), sets_(sets) {}

  Line* find(Addr line) {
    for (Line& l : set(line)) {
      if (l.line == line) return &l;
    }
    return nullptr;
  }

  void promote(Addr line) {
    std::list<Line>& s = set(line);
    for (auto it = s.begin(); it != s.end(); ++it) {
      if (it->line == line) {
        s.splice(s.begin(), s, it);
        return;
      }
    }
  }

  CacheTouch touch(Addr line, ThreadId tid, bool tx_write, bool tx_read) {
    CacheTouch r;
    std::list<Line>& s = set(line);
    if (find(line) != nullptr) {
      r.hit = true;
      promote(line);
    } else {
      if (s.size() == ways_) {
        const Line& v = s.back();
        r.evicted = true;
        r.evicted_line = v.line;
        r.evicted_tx_writer = v.tx_writer;
        r.evicted_tx_readers = v.tx_readers;
        r.evicted_dirty_core = v.dirty_core;
        r.evicted_sharers = v.sharers;
        r.evicted_tx_sets = v.tx_sets;
        s.pop_back();
      }
      s.emplace_front();
      s.front().line = line;
    }
    Line& l = s.front();
    if (tx_write) l.tx_writer = tid;
    if (tx_read) l.tx_readers |= ThreadMask{1} << tid;
    return r;
  }

  bool invalidate(Addr line) {
    std::list<Line>& s = set(line);
    for (auto it = s.begin(); it != s.end(); ++it) {
      if (it->line == line) {
        s.erase(it);
        return true;
      }
    }
    return false;
  }

  void clear_tx_marks(Addr line, ThreadId tid, bool invalidate_writes) {
    Line* l = find(line);
    if (l == nullptr) return;
    l->tx_readers &= ~(ThreadMask{1} << tid);
    if (l->tx_writer == tid) {
      l->tx_writer = -1;
      if (invalidate_writes) invalidate(line);
    }
  }

  std::size_t resident_lines() const {
    std::size_t n = 0;
    for (const auto& s : sets_) n += s.size();
    return n;
  }

  std::size_t tx_tracked_lines() const {
    std::size_t n = 0;
    for (const auto& s : sets_) {
      for (const Line& l : s) n += l.tx_sets.any() ? 1 : 0;
    }
    return n;
  }

  std::vector<std::uint32_t> occupancy_by_set() const {
    std::vector<std::uint32_t> occ;
    for (const auto& s : sets_) {
      occ.push_back(static_cast<std::uint32_t>(s.size()));
    }
    return occ;
  }

 private:
  std::list<Line>& set(Addr line) {
    return sets_[static_cast<std::size_t>(line) & (sets_.size() - 1)];
  }

  std::size_t ways_;
  std::vector<std::list<Line>> sets_;
};

void expect_same_touch(const CacheTouch& got, const CacheTouch& want,
                       const std::string& where) {
  EXPECT_EQ(got.hit, want.hit) << where;
  EXPECT_EQ(got.evicted, want.evicted) << where;
  EXPECT_EQ(got.evicted_line, want.evicted_line) << where;
  EXPECT_EQ(got.evicted_tx_writer, want.evicted_tx_writer) << where;
  EXPECT_EQ(got.evicted_tx_readers, want.evicted_tx_readers) << where;
  EXPECT_EQ(got.evicted_dirty_core, want.evicted_dirty_core) << where;
  EXPECT_EQ(got.evicted_sharers, want.evicted_sharers) << where;
  EXPECT_EQ(got.evicted_tx_sets.readers, want.evicted_tx_sets.readers)
      << where;
  EXPECT_EQ(got.evicted_tx_sets.writers, want.evicted_tx_sets.writers)
      << where;
}

/// Drop `tid`'s marks on a resident `line`, as MemorySystem does at commit
/// (invalidate_writes = false) and abort (true).
void clear_marks(CacheLevel& level, Addr line, ThreadId tid,
                 bool invalidate_writes) {
  if (CacheLevel::Entry* e = level.find(line)) {
    level.clear_tx_marks(*e, tid, invalidate_writes);
  }
}

// Returns the number of steps run; stops at the first divergence.
int run_lockstep(std::uint32_t sets, std::uint32_t ways, std::uint64_t seed,
                 int steps) {
  CacheLevel level(sets, ways);
  NaiveLevel model(sets, ways);
  std::mt19937_64 rng(seed);
  // Twice the capacity plus a few, so sets overflow and lines come back.
  const Addr pool = 2 * sets * ways + 3;
  const auto pick = [&](std::uint64_t n) { return rng() % n; };

  for (int i = 0; i < steps; ++i) {
    const std::string where = std::to_string(sets) + "x" +
                              std::to_string(ways) + " seed " +
                              std::to_string(seed) + " step " +
                              std::to_string(i);
    const Addr line = pick(pool);
    const auto tid = static_cast<ThreadId>(pick(8));
    switch (pick(8)) {
      case 0: case 1: case 2: {
        const bool tx_write = pick(4) == 0;
        const bool tx_read = !tx_write && pick(3) == 0;
        expect_same_touch(level.touch(line, tid, tx_write, tx_read),
                          model.touch(line, tid, tx_write, tx_read), where);
        break;
      }
      case 3: {
        // find + directory update through the returned entry, as the LLC
        // instance is used.
        CacheLevel::Entry* e = level.find(line);
        NaiveLevel::Line* l = model.find(line);
        EXPECT_EQ(e != nullptr, l != nullptr) << where;
        if (e == nullptr || l == nullptr) break;
        EXPECT_EQ(e->tx_writer, l->tx_writer) << where;
        EXPECT_EQ(e->tx_readers, l->tx_readers) << where;
        const int core = static_cast<int>(pick(4));
        if (pick(2) == 0) {
          e->dirty_core = l->dirty_core = core;
          e->sharers = l->sharers = CoreMask{1} << core;
        } else {
          e->sharers = l->sharers |= CoreMask{1} << core;
        }
        const ThreadMask bit = ThreadMask{1} << tid;
        if (pick(3) == 0) {
          e->tx_sets.writers = l->tx_sets.writers ^= bit;
        } else {
          e->tx_sets.readers = l->tx_sets.readers ^= bit;
        }
        break;
      }
      case 4: {
        CacheLevel::Entry* e = level.find(line);
        EXPECT_EQ(e != nullptr, model.find(line) != nullptr) << where;
        if (e != nullptr) {
          level.promote(e);
          model.promote(line);
        }
        break;
      }
      case 5:
        EXPECT_EQ(level.invalidate(line), model.invalidate(line)) << where;
        break;
      default: {
        const bool invalidate_writes = pick(2) == 0;
        clear_marks(level, line, tid, invalidate_writes);
        model.clear_tx_marks(line, tid, invalidate_writes);
        break;
      }
    }
    EXPECT_EQ(level.contains(line), model.find(line) != nullptr) << where;
    EXPECT_EQ(level.resident_lines(), model.resident_lines()) << where;
    EXPECT_EQ(level.tx_tracked_lines(), model.tx_tracked_lines()) << where;
    EXPECT_EQ(level.occupancy_by_set(), model.occupancy_by_set()) << where;
    if (::testing::Test::HasFailure()) return i + 1;
  }
  return steps;
}

TEST(CacheLevelDifferential, MatchesNaiveLruModelOnTinyGeometries) {
  int total = 0;
  for (std::uint32_t sets : {1u, 2u, 4u}) {
    for (std::uint32_t ways = 1; ways <= 10; ++ways) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        total += run_lockstep(sets, ways, seed * 1000 + sets * 16 + ways,
                              2000);
        if (HasFailure()) return;
      }
    }
  }
  EXPECT_GE(total, 100000);
}

TEST(CacheLevelDifferential, RejectsBadGeometry) {
  EXPECT_THROW(CacheLevel(3, 4), SimError);
  EXPECT_THROW(CacheLevel(0, 4), SimError);
  EXPECT_THROW(CacheLevel(4, 0), SimError);
}

}  // namespace
}  // namespace tsxhpc::sim
