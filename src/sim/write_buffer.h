// The word-granularity write log shared by both transactional memories: the
// RTM model buffers a transaction's speculative stores in one (TxState), and
// every software-TM descriptor (stm/stm.h) logs its writes in one until
// commit. Both log whole 8-byte words, so a sub-word store merges into its
// enclosing word through word_insert and a read-your-writes load picks its
// bytes back out through word_extract. MemorySystem's plain accesses use the
// same pair, so the sub-word arithmetic exists once.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.h"

namespace tsxhpc::sim {

/// The 8-byte word enclosing `a`: the key a write log files `a` under.
inline Addr word_of(Addr a) { return a & ~static_cast<Addr>(7); }

/// The `size`-byte (1/2/4/8, naturally aligned) field at `a` out of `word`,
/// the value of the word enclosing `a`.
inline std::uint64_t word_extract(std::uint64_t word, Addr a, unsigned size) {
  const unsigned shift = static_cast<unsigned>(a & 7) * 8;
  const std::uint64_t mask = size == 8 ? ~0ULL : (1ULL << (size * 8)) - 1;
  return (word >> shift) & mask;
}

/// `word` with the `size`-byte field at `a` replaced by `v`.
inline std::uint64_t word_insert(std::uint64_t word, Addr a, std::uint64_t v,
                                 unsigned size) {
  const unsigned shift = static_cast<unsigned>(a & 7) * 8;
  const std::uint64_t mask =
      size == 8 ? ~0ULL : ((1ULL << (size * 8)) - 1) << shift;
  return (word & ~mask) | ((v << shift) & mask);
}

/// Word-granularity (8 B aligned) speculative write buffer: word address ->
/// value. The words sit in an array in first-write order, indexed by a flat
/// open-addressed table, so buffering a word allocates nothing once the
/// table has grown, clear() is O(1) and commit publishes in a fixed order.
class WriteBuffer {
 public:
  bool empty() const { return words_.empty(); }

  /// The buffered value of `word`, or null.
  std::uint64_t* find(Addr word) {
    if (words_.empty()) return nullptr;
    for (std::size_t i = home(word);; i = (i + 1) & mask_) {
      if (index_[i].gen != gen_) return nullptr;
      auto& [w, value] = words_[index_[i].pos];
      if (w == word) return &value;
    }
  }

  /// The buffered value of `word`; a new word is appended with value 0 and
  /// `fresh` set, for the caller to fill.
  std::uint64_t& slot(Addr word, bool& fresh) {
    if (std::uint64_t* v = find(word)) {
      fresh = false;
      return *v;
    }
    fresh = true;
    if (2 * (words_.size() + 1) > index_.size()) grow();
    index(word, static_cast<std::uint32_t>(words_.size()));
    return words_.emplace_back(word, 0).second;
  }

  void clear() {
    words_.clear();
    if (++gen_ == 0) {  // the generation wrapped: wipe the stale slots
      index_.assign(index_.size(), Slot{});
      gen_ = 1;
    }
  }

  /// Buffered (word, value) pairs in first-write order.
  const std::vector<std::pair<Addr, std::uint64_t>>& words() const {
    return words_;
  }

 private:
  /// An index slot is occupied when its gen equals the table's, so bumping
  /// the table's gen empties every slot at once.
  struct Slot {
    std::uint32_t gen = 0;
    std::uint32_t pos = 0;  // into words_
  };

  std::size_t home(Addr word) const {
    return static_cast<std::size_t>(((word >> 3) * 0x9E3779B97F4A7C15ULL) >>
                                    shift_);
  }
  void index(Addr word, std::uint32_t pos) {
    std::size_t i = home(word);
    while (index_[i].gen == gen_) i = (i + 1) & mask_;
    index_[i] = Slot{gen_, pos};
  }
  /// Double the index (16 slots at first) and rebuild it from words_.
  void grow() {
    const std::size_t n = index_.empty() ? 16 : 2 * index_.size();
    index_.assign(n, Slot{});
    mask_ = n - 1;
    shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(n));
    gen_ = 1;
    for (std::uint32_t p = 0; p < words_.size(); ++p) index(words_[p].first, p);
  }

  std::vector<std::pair<Addr, std::uint64_t>> words_;
  std::vector<Slot> index_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::uint32_t gen_ = 1;
};

}  // namespace tsxhpc::sim
