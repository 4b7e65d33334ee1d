// The wait-free relaxed binary trie of Section 4.
//
// A dynamic set over U = {0..u-1} with strongly-linearizable
// insert/erase/contains and the *non-linearizable* relaxed_predecessor,
// whose contract (Section 4.1) is:
//   * it may return kBottom only if some key in (k, y) — k being the
//     largest completely-present key < y — had its latest S-modifying
//     update concurrent with the query;
//   * any key it returns was in S at some point during the query;
//   * with no concurrent updates it returns the exact predecessor.
//
// Progress: every operation is wait-free with O(log u) worst-case steps
// (contains is O(1)). All nodes are created Active, under which the shared
// TrieCore helpers degenerate to the Section 4 pseudocode (see
// trie_core.hpp).
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "relaxed/trie_core.hpp"

namespace lfbt {

class RelaxedBinaryTrie {
 public:
  explicit RelaxedBinaryTrie(Key universe) : core_(universe, arena_) {}

  Key universe() const noexcept { return core_.universe(); }

  /// Paper TrieSearch (l.15–18). O(1) worst case.
  bool contains(Key x) {
    assert(x >= 0 && x < core_.universe());
    return core_.search(x);
  }

  /// Paper TrieInsert (l.28–37).
  void insert(Key x) {
    assert(x >= 0 && x < core_.universe());
    UpdateNode* d_node = core_.find_latest_materialized(x);
    if (d_node->type != NodeType::kDel) return;  // x already in S
    auto* i_node = arena_.create<UpdateNode>(x, NodeType::kIns);
    i_node->status.store(UpdateNode::kActive, std::memory_order_relaxed);
    // l.34: stop the Delete the previous Insert was racing (ignore ⊥s).
    if (UpdateNode* ln = d_node->latest_next.load()) {
      if (DelNode* tg = ln->target.load()) tg->stop.store(true);
    }
    if (!core_.cas_latest(x, d_node, i_node)) return;  // someone else added x
    core_.insert_binary_trie(i_node);
  }

  /// Paper TrieDelete (l.47–57).
  void erase(Key x) {
    assert(x >= 0 && x < core_.universe());
    UpdateNode* i_node = core_.find_latest(x);
    if (i_node == nullptr || i_node->type != NodeType::kIns) return;  // x not in S
    auto* d_node = arena_.create<DelNode>(x, core_.b());
    d_node->status.store(UpdateNode::kActive, std::memory_order_relaxed);
    d_node->latest_next.store(i_node);
    if (!core_.cas_latest(x, i_node, d_node)) return;  // someone else removed x
    // l.55: stop the Delete targeted by the Insert we just superseded.
    if (DelNode* tg = i_node->target.load()) tg->stop.store(true);
    core_.delete_binary_trie(d_node);
  }

  /// Paper RelaxedPredecessor (l.73–90): largest key < y, kNoKey (-1), or
  /// kBottom (⊥) under interference. y in [0, universe()].
  Key relaxed_predecessor(Key y) {
    assert(y >= 0 && y <= core_.universe());
    return core_.relaxed_predecessor(y);
  }

  /// Smallest key > y, kNoKey, or kBottom under interference; y in
  /// [-1, universe()). Mirror image of relaxed_predecessor.
  Key relaxed_successor(Key y) {
    assert(y >= -1 && y < core_.universe());
    return core_.relaxed_successor(y);
  }

  /// Concept adapter so the relaxed trie plugs into the generic harness
  /// and tests: same as relaxed_predecessor (NOT linearizable; may return
  /// kBottom under concurrent updates — exact when quiescent).
  Key predecessor(Key y) { return relaxed_predecessor(y); }

  /// Traversal adapter, mirroring the predecessor adapter: same as
  /// relaxed_successor, with the same Section 4.1 relaxed contract.
  Key successor(Key y) { return relaxed_successor(y); }

  /// Ascending keys of S ∩ [lo, hi], at most `limit`, appended to `out`.
  /// Successor walk that retries a step when it returns ⊥ (kBottom). A ⊥
  /// is only permitted while some relevant update is concurrent
  /// (Section 4.1), so each retry is charged to interference and the scan
  /// is exact at quiescence — but the retry loop makes it obstruction-
  /// free rather than wait-free, unlike every other operation here.
  std::size_t range_scan(Key lo, Key hi, std::size_t limit,
                         std::vector<Key>& out) {
    assert(lo >= 0 && lo < universe() && hi >= lo);
    if (hi >= universe()) hi = universe() - 1;
    std::size_t n = 0;
    Key cursor = lo - 1;
    while (n < limit) {
      const Key k = relaxed_successor(cursor);
      if (k == kBottom) continue;  // interference: retry this step
      if (k == kNoKey || k > hi) break;
      out.push_back(k);
      ++n;
      cursor = k;
    }
    return n;
  }

  /// Test hook: the interpreted bit of trie node `t` (heap index).
  bool interpreted_bit_for_test(uint64_t t) { return core_.interpreted_bit(t); }
  TrieCore& core_for_test() noexcept { return core_; }

  std::size_t memory_reserved() const noexcept { return arena_.bytes_reserved(); }

 private:
  NodeArena arena_;
  TrieCore core_;
};

}  // namespace lfbt
