// Standard-library baselines for the key-encoding layer (E17), per the
// TKTRIE2 comparison methodology: the ordered contender is what a
// production team reaches for first — `std::map`-family red-black tree
// under one global mutex (here std::set<Key>, the exact set-workload
// analogue) — and the point-op contender is `std::unordered_*` under a
// readers-writer lock. Both are driven through the same KeyspaceView
// codec round trip as the tries, so E17 compares structures, not
// conversion overhead.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <unordered_set>
#include <vector>

#include "core/types.hpp"
#include "query/range_scan.hpp"

namespace lfbt {

/// std::set (red-black tree) under one global mutex. Full ordered
/// surface; every op serialises.
class LockedStdSet {
 public:
  explicit LockedStdSet(Key universe) : u_(universe) {}

  void insert(Key x) {
    std::lock_guard lock(mu_);
    set_.insert(x);
  }
  void erase(Key x) {
    std::lock_guard lock(mu_);
    set_.erase(x);
  }
  bool contains(Key x) {
    std::lock_guard lock(mu_);
    return set_.count(x) != 0;
  }
  Key predecessor(Key y) {
    std::lock_guard lock(mu_);
    auto it = set_.lower_bound(y);
    return it == set_.begin() ? kNoKey : *std::prev(it);
  }
  Key successor(Key y) {
    std::lock_guard lock(mu_);
    auto it = set_.upper_bound(y);
    return it == set_.end() ? kNoKey : *it;
  }
  std::size_t range_scan(Key lo, Key hi, std::size_t limit,
                         std::vector<Key>& out) {
    std::lock_guard lock(mu_);
    std::size_t n = 0;
    for (auto it = set_.lower_bound(lo); it != set_.end() && *it <= hi; ++it) {
      if (n == limit) break;
      out.push_back(*it);
      ++n;
    }
    return n;
  }
  /// Lock held for the walk: exact snapshot, always atomic.
  ScanResult range_scan_validated(Key lo, Key hi, std::size_t limit,
                                  std::vector<Key>& out,
                                  uint32_t /*max_retries*/ = 0) {
    return atomic_range_scan(*this, lo, hi, limit, out);
  }
  std::size_t size() const {
    std::lock_guard lock(mu_);
    return set_.size();
  }
  bool empty() const { return size() == 0; }
  Key universe() const noexcept { return u_; }

 private:
  const Key u_;
  mutable std::mutex mu_;
  std::set<Key> set_;
};

/// std::unordered_set under a readers-writer lock: the hash-table
/// point-op baseline. It has NO ordered surface — predecessor aborts
/// loudly rather than returning a fantasy answer, and the traversal
/// concept is deliberately not modelled, so run_bench statically
/// refuses ordered mixes against it. Use only with point-op panels.
class SharedMutexHashSet {
 public:
  explicit SharedMutexHashSet(Key universe) : u_(universe) {}

  void insert(Key x) {
    std::unique_lock lock(mu_);
    set_.insert(x);
  }
  void erase(Key x) {
    std::unique_lock lock(mu_);
    set_.erase(x);
  }
  bool contains(Key x) {
    std::shared_lock lock(mu_);
    return set_.count(x) != 0;
  }
  Key predecessor(Key) {
    std::fprintf(stderr,
                 "SharedMutexHashSet: predecessor() on a hash table — use an "
                 "ordered structure for this mix\n");
    std::abort();
  }
  std::size_t size() const {
    std::shared_lock lock(mu_);
    return set_.size();
  }
  bool empty() const { return size() == 0; }
  Key universe() const noexcept { return u_; }

 private:
  const Key u_;
  mutable std::shared_mutex mu_;
  std::unordered_set<Key> set_;
};

}  // namespace lfbt
