// Universal-construction baseline: a wait-free-read / lock-free-update
// dynamic set built by copy-on-write of an immutable sorted snapshot
// behind a single CAS'd pointer (Herlihy's construction specialised to a
// set). Every update copies the whole O(n) state — exactly the cost the
// paper's introduction argues universal constructions impose — while
// reads are a snapshot load plus binary search.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <vector>

#include "core/types.hpp"
#include "query/range_scan.hpp"
#include "sync/ebr.hpp"

namespace lfbt {

class CowUniversalSet {
 public:
  explicit CowUniversalSet(Key universe = kPosInf) : u_(universe) {
    current_.store(new Version{});
  }

  ~CowUniversalSet() { delete current_.load(std::memory_order_relaxed); }

  Key universe() const noexcept { return u_; }

  bool contains(Key x) {
    ebr::Guard guard;
    const Version* v = current_.load(std::memory_order_acquire);
    return std::binary_search(v->keys.begin(), v->keys.end(), x);
  }

  void insert(Key x) { update(x, /*add=*/true); }
  void erase(Key x) { update(x, /*add=*/false); }

  /// Largest key < y, or kNoKey.
  Key predecessor(Key y) {
    ebr::Guard guard;
    const Version* v = current_.load(std::memory_order_acquire);
    auto it = std::lower_bound(v->keys.begin(), v->keys.end(), y);
    return it == v->keys.begin() ? kNoKey : *(it - 1);
  }

  /// Smallest key > y, or kNoKey.
  Key successor(Key y) {
    ebr::Guard guard;
    const Version* v = current_.load(std::memory_order_acquire);
    auto it = std::upper_bound(v->keys.begin(), v->keys.end(), y);
    return it == v->keys.end() ? kNoKey : *it;
  }

  /// Ascending keys of S ∩ [lo, hi], at most `limit`, appended to `out`.
  /// Fully linearizable scan (linearizes at the snapshot-pointer read) —
  /// the one genuine advantage the O(n)-update universal construction
  /// keeps over every in-place structure here.
  std::size_t range_scan(Key lo, Key hi, std::size_t limit,
                         std::vector<Key>& out) {
    assert(lo >= 0 && hi >= lo);
    ebr::Guard guard;
    const Version* v = current_.load(std::memory_order_acquire);
    auto it = std::lower_bound(v->keys.begin(), v->keys.end(), lo);
    std::size_t n = 0;
    while (n < limit && it != v->keys.end() && *it <= hi) {
      out.push_back(*it);
      ++n;
      ++it;
    }
    return n;
  }

  /// Snapshot scan through the uniform validated surface: atomic by
  /// construction, never retries.
  ScanResult range_scan_validated(Key lo, Key hi, std::size_t limit,
                                  std::vector<Key>& out,
                                  uint32_t /*max_retries*/ = 0) {
    return atomic_range_scan(*this, lo, hi, limit, out);
  }

 private:
  struct Version {
    std::vector<Key> keys;  // sorted, immutable once published
  };

  void update(Key x, bool add) {
    ebr::Guard guard;
    Version* next = nullptr;
    for (;;) {
      Version* cur = current_.load(std::memory_order_acquire);
      auto it = std::lower_bound(cur->keys.begin(), cur->keys.end(), x);
      const bool present = it != cur->keys.end() && *it == x;
      if (present == add) {
        delete next;
        return;  // nothing to do
      }
      if (next == nullptr) next = new Version;
      next->keys = cur->keys;  // the O(n) copy the paper warns about
      auto pos = std::lower_bound(next->keys.begin(), next->keys.end(), x);
      if (add) {
        next->keys.insert(pos, x);
      } else {
        next->keys.erase(pos);
      }
      Version* expected = cur;
      if (current_.compare_exchange_strong(expected, next,
                                           std::memory_order_acq_rel)) {
        ebr::retire(cur);
        return;
      }
    }
  }

  Key u_;
  std::atomic<Version*> current_;
};

}  // namespace lfbt
