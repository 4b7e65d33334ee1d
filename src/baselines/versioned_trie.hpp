// Versioned (augmented) binary trie, in the style the paper's Related
// Work attributes to Fatourou & Ruppert [27]: trie nodes point to
// immutable *version nodes* carrying an augmentation (here: subtree key
// counts), so a consistent snapshot is one pointer read and updates
// install fresh versions along a leaf-to-root path.
//
// We realise it as a path-copying persistent trie behind a single CAS'd
// root: an update copies the O(log u) path, then CASes the root (retrying
// on conflict — lock-free: a failed CAS means another update succeeded).
// Reads are wait-free on an immutable snapshot, which makes predecessor,
// rank and select trivially linearizable (they linearize at the root
// read). The sum augmentation gives O(1) size() and O(log u) rank/select,
// the operations [27] uses to motivate augmentation.
//
// The version-node substrate (vsn::VNode, the walkers, and the
// RecyclePool that bounds footprint under update churn) lives in
// query/snapshot_view.hpp, shared with SnapshotView — the O(1)
// read-transaction facade snapshot() returns: the root read plus the
// ebr::Guard that pins it, packaged as an object, so callers compose
// arbitrarily many reads against one frozen state and release the pin
// when done (lifetime/threading contract in that header).
//
// Trade-off vs the paper's lock-free trie: every update allocates and
// CASes one global word, so update throughput collapses under write
// contention — exactly the behaviour E1 measures against.
#pragma once

#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/types.hpp"
#include "query/snapshot_view.hpp"
#include "sync/ebr.hpp"

namespace lfbt {

class VersionedTrie {
 public:
  explicit VersionedTrie(Key universe)
      : u_(universe),
        b_(static_cast<uint32_t>(std::bit_width(
            static_cast<uint64_t>(universe < 2 ? 2 : universe) - 1))) {}

  /// Requires quiescence, like any container destructor. Live version
  /// nodes are handed back to the pool through EBR, so they rejoin the
  /// free list only after every guard — including any still-unreleased
  /// SnapshotView's — has drained; a stale view never touches recycled
  /// memory (immortal slabs), though reading it past this point is
  /// still a contract violation.
  ~VersionedTrie() {
    release(root_.load(std::memory_order_relaxed));
  }

  Key universe() const noexcept { return u_; }

  bool contains(Key x) const {
    assert(x >= 0 && x < u_);
    ebr::Guard guard;
    const vsn::VNode* v = root_.load(std::memory_order_acquire);
    for (uint32_t lvl = b_; v != nullptr && lvl > 0; --lvl) {
      v = vsn::bit_at(x, lvl - 1) ? v->right : v->left;
    }
    return v != nullptr;
  }

  void insert(Key x) { update(x, /*add=*/true); }
  void erase(Key x) { update(x, /*add=*/false); }

  /// O(1) read-transaction: acquire the pin, read the root, done. Every
  /// query on the returned view observes the state frozen here. The
  /// view must be queried/released on THIS thread (see
  /// query/snapshot_view.hpp for the full contract).
  SnapshotView snapshot() const {
    auto pin = std::make_unique<ebr::Guard>();
    const vsn::VNode* root = root_.load(std::memory_order_acquire);
    return SnapshotView(std::move(pin), root, u_, b_);
  }

  /// Number of keys in the set — O(1), the headline augmented query.
  std::size_t size() const {
    ebr::Guard guard;
    const vsn::VNode* v = root_.load(std::memory_order_acquire);
    return v == nullptr ? 0 : v->sum;
  }

  /// Number of keys strictly less than y — O(log u) on a snapshot.
  std::size_t rank(Key y) const {
    assert(y >= 0 && y <= u_);
    ebr::Guard guard;
    return vsn::rank_in(root_.load(std::memory_order_acquire), y, b_);
  }

  /// i-th smallest key (0-based), or kNoKey if i >= size().
  Key select(std::size_t i) const {
    ebr::Guard guard;
    return vsn::select_in(root_.load(std::memory_order_acquire), i, b_);
  }

  /// Largest key < y, or kNoKey. rank and select must run against the
  /// SAME version: one root read pins the snapshot both walks use, which
  /// is what makes the composition linearizable (two independent root
  /// reads can straddle an update and combine into an answer no single
  /// state ever had).
  Key predecessor(Key y) const {
    assert(y >= 0 && y <= u_);
    ebr::Guard guard;
    const vsn::VNode* v = root_.load(std::memory_order_acquire);
    std::size_t r = vsn::rank_in(v, y, b_);
    return r == 0 ? kNoKey : vsn::select_in(v, r - 1, b_);
  }

  /// Smallest key > y, or kNoKey. Same single-snapshot discipline.
  Key successor(Key y) const {
    assert(y >= -1 && y < u_);
    ebr::Guard guard;
    const vsn::VNode* v = root_.load(std::memory_order_acquire);
    std::size_t r = y < 0 ? 0 : vsn::rank_in(v, y + 1, b_);
    return vsn::select_in(v, r, b_);
  }

  /// Ascending keys of S ∩ [lo, hi], at most `limit`, appended to `out`.
  /// Fully linearizable scan: one root read pins an immutable version and
  /// the walk (range-pruned, O(m + log u) for m reported keys) never
  /// touches mutable state — the snapshot payoff [27]'s augmentation
  /// design is built for.
  std::size_t range_scan(Key lo, Key hi, std::size_t limit,
                         std::vector<Key>& out) const {
    assert(lo >= 0 && lo < u_ && hi >= lo);
    if (hi >= u_) hi = u_ - 1;
    ebr::Guard guard;
    const vsn::VNode* v = root_.load(std::memory_order_acquire);
    std::size_t n = 0;
    vsn::collect(v, b_, 0, lo, hi, limit, n, out);
    return n;
  }

  /// Atomic by construction — the snapshot walk above, reported through
  /// the uniform validated-scan surface (never retries).
  ScanResult range_scan_validated(Key lo, Key hi, std::size_t limit,
                                  std::vector<Key>& out,
                                  uint32_t /*max_retries*/ = 0) const {
    return atomic_range_scan(*this, lo, hi, limit, out);
  }

 private:
  /// Immutable rebuild of the path to x with the leaf set/cleared.
  /// Returns the new root (nullptr = empty) and appends the freshly
  /// acquired nodes to `fresh` so a failed CAS can roll them back.
  const vsn::VNode* rebuild(const vsn::VNode* v, Key x, uint32_t lvl,
                            bool add, std::vector<const vsn::VNode*>& fresh) {
    if (lvl == 0) {
      if (!add) return nullptr;
      const vsn::VNode* leaf = vsn::make_vnode(1, nullptr, nullptr);
      fresh.push_back(leaf);
      return leaf;
    }
    const vsn::VNode* old_left = v != nullptr ? v->left : nullptr;
    const vsn::VNode* old_right = v != nullptr ? v->right : nullptr;
    const vsn::VNode* left = old_left;
    const vsn::VNode* right = old_right;
    if (vsn::bit_at(x, lvl - 1)) {
      right = rebuild(old_right, x, lvl - 1, add, fresh);
    } else {
      left = rebuild(old_left, x, lvl - 1, add, fresh);
    }
    const std::size_t sum =
        (left != nullptr ? left->sum : 0) + (right != nullptr ? right->sum : 0);
    if (sum == 0) return nullptr;
    const vsn::VNode* node = vsn::make_vnode(sum, left, right);
    fresh.push_back(node);
    return node;
  }

  void update(Key x, bool add) {
    assert(x >= 0 && x < u_);
    for (;;) {
      ebr::Guard guard;
      const vsn::VNode* old_root = root_.load(std::memory_order_acquire);
      // Presence check on the snapshot: idempotent ops bail out.
      {
        const vsn::VNode* v = old_root;
        for (uint32_t lvl = b_; v != nullptr && lvl > 0; --lvl) {
          v = vsn::bit_at(x, lvl - 1) ? v->right : v->left;
        }
        if ((v != nullptr) == add) return;
      }
      std::vector<const vsn::VNode*> fresh;
      const vsn::VNode* new_root = rebuild(old_root, x, b_, add, fresh);
      const vsn::VNode* expected = old_root;
      if (root_.compare_exchange_strong(expected, new_root,
                                        std::memory_order_acq_rel)) {
        // Retire exactly the replaced path of the old version; shared
        // subtrees live on in the new version.
        retire_path(old_root, x);
        return;
      }
      // Lost the race; the never-published nodes go back via release()
      // (the extra grace period keeps every pool path ABA-safe).
      for (const vsn::VNode* n : fresh) vsn::retire_vnode(n);
    }
  }

  void retire_path(const vsn::VNode* v, Key x) {
    uint32_t lvl = b_;
    while (v != nullptr) {
      vsn::retire_vnode(v);
      if (lvl == 0) break;
      v = vsn::bit_at(x, lvl - 1) ? v->right : v->left;
      --lvl;
    }
  }

  /// Destructor-only: hand a whole version tree back to the pool.
  void release(const vsn::VNode* v) {
    if (v == nullptr) return;
    release(v->left);
    release(v->right);
    vsn::retire_vnode(v);
  }

  Key u_;
  uint32_t b_;
  std::atomic<const vsn::VNode*> root_{nullptr};
};

}  // namespace lfbt
