// Sequential binary trie (the paper's Section 1 baseline data structure).
//
// b+1 bitmap levels D_0..D_b; D_i[x] = 1 iff x is a length-i prefix of
// some key in S. contains is O(1) (one bit probe), insert/erase/
// predecessor are O(log u). Used as the reference model in tests and as
// the body of the locked baselines.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "query/range_scan.hpp"

namespace lfbt {

class SeqBinaryTrie {
 public:
  explicit SeqBinaryTrie(Key universe)
      : u_(universe),
        b_(static_cast<uint32_t>(std::bit_width(
            static_cast<uint64_t>(universe < 2 ? 2 : universe) - 1))) {
    levels_.resize(b_ + 1);
    for (uint32_t i = 0; i <= b_; ++i) {
      levels_[i].assign(((uint64_t{1} << i) + 63) / 64, 0);
    }
  }

  Key universe() const noexcept { return u_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  bool contains(Key x) const {
    assert(x >= 0 && x < u_);
    return get(b_, static_cast<uint64_t>(x));
  }

  /// Returns true if x was newly added.
  bool insert(Key x) {
    assert(x >= 0 && x < u_);
    uint64_t idx = static_cast<uint64_t>(x);
    if (get(b_, idx)) return false;
    for (uint32_t lvl = b_ + 1; lvl-- > 0;) {
      set(lvl, idx);
      idx >>= 1;
    }
    ++size_;
    return true;
  }

  /// Returns true if x was present.
  bool erase(Key x) {
    assert(x >= 0 && x < u_);
    uint64_t idx = static_cast<uint64_t>(x);
    if (!get(b_, idx)) return false;
    clear(b_, idx);
    for (uint32_t lvl = b_; lvl-- > 0;) {
      uint64_t child = idx & ~uint64_t(1);
      if (get(lvl + 1, child) || get(lvl + 1, child | 1)) break;
      idx >>= 1;
      clear(lvl, idx);
    }
    --size_;
    return true;
  }

  /// Largest key < y in S, or kNoKey. y in [0, universe()].
  Key predecessor(Key y) const {
    assert(y >= 0 && y <= u_);
    uint64_t idx;
    uint32_t lvl;
    if (static_cast<uint64_t>(y) >= (uint64_t{1} << b_)) {
      if (!get(0, 0)) return kNoKey;
      idx = 0;
      lvl = 0;
    } else {
      // Climb until a 1-valued left sibling exists.
      idx = static_cast<uint64_t>(y);
      lvl = b_;
      for (;;) {
        if ((idx & 1) != 0 && get(lvl, idx - 1)) {
          idx -= 1;
          break;
        }
        if (lvl == 0) return kNoKey;
        idx >>= 1;
        --lvl;
      }
    }
    // Descend the right-most 1-path.
    while (lvl < b_) {
      ++lvl;
      idx <<= 1;
      if (get(lvl, idx | 1)) {
        idx |= 1;
      }
      // Sequentially, D_lvl[idx<<1] | D_lvl[idx<<1|1] == D_{lvl-1}[idx],
      // so one of the children is set.
    }
    return static_cast<Key>(idx);
  }

  /// Smallest key > y in S, or kNoKey. y in [-1, universe()).
  Key successor(Key y) const {
    assert(y >= -1 && y < u_);
    uint64_t idx;
    uint32_t lvl;
    if (y < 0) {
      if (!get(0, 0)) return kNoKey;
      idx = 0;
      lvl = 0;
    } else {
      idx = static_cast<uint64_t>(y);
      lvl = b_;
      for (;;) {
        if ((idx & 1) == 0 && get(lvl, idx + 1)) {
          idx += 1;
          break;
        }
        if (lvl == 0) return kNoKey;
        idx >>= 1;
        --lvl;
      }
    }
    // Descend the left-most 1-path.
    while (lvl < b_) {
      ++lvl;
      idx <<= 1;
      if (!get(lvl, idx)) idx |= 1;
    }
    const Key found = static_cast<Key>(idx);
    return found < u_ ? found : kNoKey;
  }

  /// Ascending keys of S ∩ [lo, hi], at most `limit`, appended to `out`;
  /// returns the number appended. Successor walk — O(m log u) for m
  /// reported keys (contract: query/range_scan.hpp; exact here, since the
  /// structure is sequential).
  std::size_t range_scan(Key lo, Key hi, std::size_t limit,
                         std::vector<Key>& out) const {
    assert(lo >= 0 && lo < u_ && hi >= lo);
    if (hi >= u_) hi = u_ - 1;
    std::size_t n = 0;
    Key k = successor(lo - 1);
    while (n < limit && k != kNoKey && k <= hi) {
      out.push_back(k);
      ++n;
      k = successor(k);
    }
    return n;
  }

  /// Sequential structure: every scan is trivially a single-state
  /// observation. Uniform validated-scan surface, never retries.
  ScanResult range_scan_validated(Key lo, Key hi, std::size_t limit,
                                  std::vector<Key>& out,
                                  uint32_t /*max_retries*/ = 0) const {
    return atomic_range_scan(*this, lo, hi, limit, out);
  }

 private:
  bool get(uint32_t lvl, uint64_t idx) const {
    return (levels_[lvl][idx >> 6] >> (idx & 63)) & 1;
  }
  void set(uint32_t lvl, uint64_t idx) {
    levels_[lvl][idx >> 6] |= uint64_t{1} << (idx & 63);
  }
  void clear(uint32_t lvl, uint64_t idx) {
    levels_[lvl][idx >> 6] &= ~(uint64_t{1} << (idx & 63));
  }

  Key u_;
  uint32_t b_;
  std::size_t size_ = 0;
  std::vector<std::vector<uint64_t>> levels_;
};

}  // namespace lfbt
