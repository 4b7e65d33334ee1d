// Correctness checks that feed `failed`:
//   * per-op invariants on every answer a workload returns;
//   * a quiescent audit after each run: contains over every key, a full
//     range_scan, the successor and predecessor chains and size() agree;
//   * an op-by-op comparison of a structure against a std::set oracle
//     (the ladder's rungs);
// plus a deliberately faulty set the self-test runs through all three.
#pragma once

#include <cstdint>
#include <iterator>
#include <set>
#include <vector>

#include "core/lockfree_trie.hpp"
#include "shard/ordered_set.hpp"
#include "util.hpp"

namespace perfbench {

/// Attempted vs failed, in ops.
struct CheckCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  CheckCount& operator+=(const CheckCount& o) {
    attempted += o.attempted;
    failed += o.failed;
    return *this;
  }
};

/// predecessor(y) is ⊥ or in [0, y); successor(y) is ⊥ or in (y, u).
/// `allow_bottom` admits the relaxed trie's kBottom under interference.
inline bool answer_ok(uint8_t kind, Key y, Key r, Key u, bool allow_bottom = false) {
  if (r == lfbt::kNoKey || (allow_bottom && r == lfbt::kBottom)) return true;
  if (kind == kPredecessor) return r >= 0 && r < y;
  if (kind == kSuccessor) return r > y && r < u;
  return true;
}

/// Applies one op; returns the answer (contains -> 0/1, queries -> key,
/// updates -> 0).
template <class S>
inline Key apply(S& s, const Op& op) {
  const Key k = op.key;
  switch (op.kind) {
    case kInsert:
      s.insert(k);
      return 0;
    case kErase:
      s.erase(k);
      return 0;
    case kContains:
      return s.contains(k) ? 1 : 0;
    case kPredecessor:
      return s.predecessor(k);
    default:
      return s.successor(k);
  }
}

/// Quiescent audit: five views of the set must agree.
template <class S>
CheckCount audit(S& s, Key u) {
  CheckCount c;
  std::vector<Key> by_contains;
  for (Key k = 0; k < u; ++k) {
    if (s.contains(k)) by_contains.push_back(k);
  }
  c.attempted += static_cast<uint64_t>(u);

  std::vector<Key> scan;
  s.range_scan(0, u - 1, static_cast<std::size_t>(u), scan);
  ++c.attempted;
  if (scan != by_contains) ++c.failed;

  // Successor chain from -1 upward; predecessor chain from u downward.
  // Each step is one op; a step that leaves the contains view fails.
  std::size_t i = 0;
  for (Key y = -1;;) {
    const Key r = s.successor(y);
    ++c.attempted;
    const Key want = i < by_contains.size() ? by_contains[i] : lfbt::kNoKey;
    if (r != want || !answer_ok(kSuccessor, y, r, u)) {
      ++c.failed;
      break;
    }
    if (r == lfbt::kNoKey) break;
    y = r;
    ++i;
  }
  i = by_contains.size();
  for (Key y = u;;) {
    const Key r = s.predecessor(y);
    ++c.attempted;
    const Key want = i > 0 ? by_contains[i - 1] : lfbt::kNoKey;
    if (r != want || !answer_ok(kPredecessor, y, r, u)) {
      ++c.failed;
      break;
    }
    if (r == lfbt::kNoKey) break;
    y = r;
    --i;
  }
  ++c.attempted;
  if (s.size() != by_contains.size()) ++c.failed;
  return c;
}

/// The oracle's answer to `op`, applying updates to it.
inline Key oracle_apply(std::set<Key>& o, const Op& op) {
  const Key k = op.key;
  switch (op.kind) {
    case kInsert:
      o.insert(k);
      return 0;
    case kErase:
      o.erase(k);
      return 0;
    case kContains:
      return o.count(k) ? 1 : 0;
    case kPredecessor: {
      auto it = o.lower_bound(k);
      return it == o.begin() ? lfbt::kNoKey : *std::prev(it);
    }
    default: {
      auto it = o.upper_bound(k);
      return it == o.end() ? lfbt::kNoKey : *it;
    }
  }
}

/// A set with planted faults, one per check family: predecessor and
/// successor answers outside their range every 997th call, a contains
/// that lies about key 5, a scan that drops its first key, and a size()
/// one too large. The self-test requires every check to fire on it.
class FaultySet {
 public:
  explicit FaultySet(Key u) : t_(u) {}
  Key universe() const { return t_.universe(); }
  void insert(Key x) { t_.insert(x); }
  void erase(Key x) { t_.erase(x); }
  bool contains(Key x) { return x == 5 ? !t_.contains(x) : t_.contains(x); }
  Key predecessor(Key y) { return ++calls_ % 997 == 0 ? y : t_.predecessor(y); }
  Key successor(Key y) { return ++calls_ % 997 == 0 ? y : t_.successor(y); }
  std::size_t range_scan(Key lo, Key hi, std::size_t limit, std::vector<Key>& out) {
    const std::size_t n = t_.range_scan(lo, hi, limit, out);
    if (n > 0) out.erase(out.begin());
    return n > 0 ? n - 1 : 0;
  }
  std::size_t size() const { return t_.size() + 1; }

 private:
  lfbt::LockFreeBinaryTrie t_;
  uint64_t calls_ = 0;
};

}  // namespace perfbench
