// TrieCore: the relaxed-binary-trie machinery of Section 4, shared by the
// standalone wait-free relaxed trie and the lock-free linearizable trie of
// Section 5.
//
// The sharing works because the full-trie FindLatest / FirstActivated
// (paper lines 116–127) *degenerate* to the relaxed-trie versions (lines
// 13–21) when every update node is created Active: the Inactive branches
// are never taken, leaving a plain read / a pointer comparison. The
// relaxed trie therefore creates all nodes Active and reuses this code.
//
// Representation. The perfect binary trie over U = {0..2^b - 1} is stored
// implicitly with heap indexing: node 1 is the root, node t has children
// 2t and 2t+1, leaves are indices 2^b + x. Internal nodes are just an
// array of dNodePtr words (paper line 114); leaves have no storage — the
// interpreted bit of leaf x is derived from latest[x].
//
// Null is the initial dummy. The paper initialises latest[x] and every
// dNodePtr[t] with a dummy DEL node (l.114). Both arrays here start null,
// and a null word *is* that dummy, so reads never allocate:
//  * dNodePtr[t]. Its dummy is used only for its key and its CAS identity.
//    The key is the leftmost leaf of t's subtrie, dkey(t, d) = d ? d->key
//    : leftmost(t), and DeleteBinaryTrie CASes from null directly. Slots
//    are only ever CASed to real DEL nodes, never back to null, so a CAS
//    from null succeeds iff the slot was never written: no ABA.
//  * latest[x]. Read-only paths (interpreted_bit, first_activated, search
//    and the not-present return of both erases) read null as an Active,
//    first-activated DEL node with upper0 = b and lower1 = b+1: the
//    dummy's initial state, which only a holder of a real node can change.
//    A dummy is materialised, by a CAS from null, only where a real node
//    is required (find_latest_materialized): Insert's claiming CAS and
//    latestNext (l.164–170), and InsertBinaryTrie's pin and lower1
//    min-write (l.43). See docs/DESIGN.md, "Null as the initial DEL node".
#pragma once

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>

#include "core/trie_pools.hpp"
#include "core/types.hpp"
#include "core/update_node.hpp"
#include "sync/arena.hpp"
#include "sync/stats.hpp"

namespace lfbt {

class TrieCore {
 public:
  /// `universe` = u; keys are {0..u-1}. b = ceil(log2 max(u,2)).
  TrieCore(Key universe, NodeArena& arena)
      : u_(universe),
        b_(static_cast<uint32_t>(std::bit_width(
            static_cast<uint64_t>(universe < 2 ? 2 : universe) - 1))),
        leaf_base_(uint64_t{1} << b_),
        arena_(&arena),
        latest_(new std::atomic<UpdateNode*>[leaf_base_]()),
        dnodeptr_(new std::atomic<DelNode*>[leaf_base_]()) {
    assert(universe >= 1);
  }

  TrieCore(const TrieCore&) = delete;
  TrieCore& operator=(const TrieCore&) = delete;

  Key universe() const noexcept { return u_; }
  uint32_t b() const noexcept { return b_; }
  uint64_t leaf(Key x) const noexcept { return leaf_base_ + static_cast<uint64_t>(x); }
  uint64_t leaf_base() const noexcept { return leaf_base_; }

  static uint64_t parent(uint64_t t) noexcept { return t >> 1; }
  static uint64_t sibling(uint64_t t) noexcept { return t ^ 1; }
  uint32_t height(uint64_t t) const noexcept {
    return b_ - (static_cast<uint32_t>(std::bit_width(t)) - 1);
  }
  bool is_leaf(uint64_t t) const noexcept { return t >= leaf_base_; }

  /// latest[x]; null is the initial dummy DEL node (see the header).
  UpdateNode* read_latest(Key x) {
    Stats::count_read();
    return latest_[x].load();
  }

  /// CAS on latest[x] (paper l.35/54/170/192).
  bool cas_latest(Key x, UpdateNode* expected, UpdateNode* desired) {
    bool ok = latest_[x].compare_exchange_strong(expected, desired);
    Stats::count_cas(ok);
    return ok;
  }

  /// Paper FindLatest (l.116–120): first activated node of the latest[x]
  /// list, or null for the initial dummy.
  UpdateNode* find_latest(Key x) {
    UpdateNode* u = read_latest(x);
    if (u != nullptr && u->status.load() == UpdateNode::kInactive) {
      Stats::count_read();
      UpdateNode* next = u->latest_next.load();
      Stats::count_read();
      if (next != nullptr) return next;
    }
    return u;
  }

  /// FindLatest for the paths that need a real node: a null latest[x] gets
  /// its initial dummy (Active, completed, upper0 = b, lower1 = b+1) by a
  /// CAS from null. A lost CAS leaves the spare dummy in the arena; the
  /// slot is then non-null for good. Never returns null.
  UpdateNode* find_latest_materialized(Key x) {
    if (UpdateNode* u = find_latest(x)) return u;
    DelNode* d = arena_->create<DelNode>(x, b_);
    d->status.store(UpdateNode::kActive, std::memory_order_relaxed);
    d->completed.store(true, std::memory_order_relaxed);
    d->upper0.store(b_, std::memory_order_relaxed);
    return cas_latest(x, nullptr, d) ? d : find_latest(x);
  }

  /// Paper Search (l.121–124): a null or DEL first-activated node is "absent".
  bool search(Key x) {
    UpdateNode* u = find_latest(x);
    return u != nullptr && u->type == NodeType::kIns;
  }

  /// Paper FirstActivated (l.125–127). n is a real node, so a null
  /// latest[n.key] (the initial dummy) is not n.
  bool first_activated(UpdateNode* n) {
    UpdateNode* u = read_latest(n->key);
    if (u == n) return true;
    if (u == nullptr) return false;
    Stats::count_read(2);
    return u->status.load() == UpdateNode::kInactive && u->latest_next.load() == n;
  }

  /// Paper InterpretedBit (l.22–27). The initial dummy reads 0 at every
  /// height.
  bool interpreted_bit(uint64_t t) {
    if (is_leaf(t)) return search(static_cast<Key>(t - leaf_base_));
    UpdateNode* u = find_latest(dkey(t, read_dnodeptr(t)));
    if (u == nullptr) return false;
    if (u->type == NodeType::kIns) return true;
    auto* dn = static_cast<DelNode*>(u);
    const uint32_t h = height(t);
    Stats::count_read(2);
    if (h <= dn->upper0.load()) {
      if (h < dn->lower1.read(std::memory_order_seq_cst) && first_activated(u)) {
        return false;
      }
    }
    return true;
  }

  /// Paper InsertBinaryTrie (l.38–46): raise interpreted bits to 1 on the
  /// path from iNode.key's leaf-parent to the root. Wait-free, O(log u).
  void insert_binary_trie(UpdateNode* i_node) {
    uint64_t t = leaf(i_node->key);
    while (t > 1) {
      t >>= 1;
      DelNode* d = read_dnodeptr(t);
      UpdateNode* u = find_latest_materialized(dkey(t, d));
      if (u->type != NodeType::kDel) continue;
      auto* dn = static_cast<DelNode*>(u);
      const uint32_t h = height(t);
      Stats::count_read();
      if (static_cast<UpdateNode*>(d) == u || h <= dn->upper0.load()) {
        if (dn->try_pin()) {
          // `target` always holds a pinned node; the displaced one drops
          // its pin here, the final one at i_node's own retirement.
          if (DelNode* old = i_node->target.exchange(dn)) unpin_update(old);
        }
        // Pin failure means dn is retired, hence its Delete completed —
        // a stop signal aimed at it would be moot, so skipping the store
        // loses nothing.
        if (!first_activated(i_node)) return;
        Stats::count_read();
        if (h < dn->lower1.read(std::memory_order_seq_cst)) {
          dn->lower1.min_write(h, std::memory_order_seq_cst);
          Stats::count_min_write();
        }
      }
    }
  }

  /// Paper DeleteBinaryTrie (l.58–72): lower interpreted bits to 0 on the
  /// path from dNode.key's leaf towards the root, stopping at the first
  /// node with a 1-child or when told to stop. Wait-free, O(log u).
  void delete_binary_trie(DelNode* d_node) {
    const uint32_t b1 = b_ + 1;
    uint64_t t = leaf(d_node->key);
    while (t > 1) {
      if (interpreted_bit(sibling(t)) || interpreted_bit(t)) return;
      t >>= 1;
      DelNode* d = read_dnodeptr(t);
      if (!first_activated(d_node)) return;
      Stats::count_read(2);
      if (d_node->stop.load() ||
          d_node->lower1.read(std::memory_order_seq_cst) != b1) {
        return;
      }
      if (!cas_dnodeptr(t, d, d_node)) {
        // Second attempt (l.67–70): re-read and retry once; outdated
        // deleters lose both attempts to a newer deleter and return.
        d = read_dnodeptr(t);
        if (!first_activated(d_node)) return;
        Stats::count_read(2);
        if (d_node->stop.load() ||
            d_node->lower1.read(std::memory_order_seq_cst) != b1) {
          return;
        }
        if (!cas_dnodeptr(t, d, d_node)) return;
      }
      if (interpreted_bit(2 * t) || interpreted_bit(2 * t + 1)) return;
      d_node->upper0.store(height(t));
    }
  }

  /// Paper RelaxedPredecessor (l.73–90). Returns the predecessor key,
  /// kNoKey (-1), or kBottom (⊥) when concurrent updates block the
  /// downward traversal. Wait-free, O(log u).
  ///
  /// y may be `universe()` (one past the largest key) to query the maximum
  /// of the set; in that case the traversal starts at the root.
  Key relaxed_predecessor(Key y) {
    uint64_t t;
    if (static_cast<uint64_t>(y) >= leaf_base_) {
      if (!interpreted_bit(1)) return kNoKey;
      t = 1;
    } else {
      t = leaf(y);
      // Climb while t is a left child or its left sibling's bit is 0.
      while ((t & 1) == 0 || !interpreted_bit(sibling(t))) {
        t >>= 1;
        if (t == 1) return kNoKey;
      }
      t = sibling(t);  // == t.parent.left, since t is a right child
    }
    // Descend the right-most path of interpreted-bit-1 nodes.
    while (!is_leaf(t)) {
      if (interpreted_bit(2 * t + 1)) {
        t = 2 * t + 1;
      } else if (interpreted_bit(2 * t)) {
        t = 2 * t;
      } else {
        return kBottom;  // both children 0: a concurrent update interfered
      }
    }
    return static_cast<Key>(t - leaf_base_);
  }

  /// Successor analogue of RelaxedPredecessor (mirror-image traversal):
  /// smallest key > y, kNoKey if none, or kBottom under interference.
  /// y may be -1 to query the minimum of the set. Wait-free, O(log u).
  ///
  /// This is the natural extension the paper's symmetric structure admits
  /// (climb while t is a right child or its right sibling's bit is 0, then
  /// descend the left-most 1-path); the relaxed-trie correctness argument
  /// carries over by symmetry. The Section 5 structure builds its
  /// linearizable successor on exactly this traversal, mirroring the
  /// announcement machinery the same way (core/lockfree_trie.hpp).
  Key relaxed_successor(Key y) {
    uint64_t t;
    if (y < 0) {
      if (!interpreted_bit(1)) return kNoKey;
      t = 1;
    } else {
      t = leaf(y);
      // Climb while t is a right child or its right sibling's bit is 0.
      while ((t & 1) == 1 || !interpreted_bit(sibling(t))) {
        t >>= 1;
        if (t == 1) return kNoKey;
      }
      t = sibling(t);  // == t.parent.right, since t is a left child
    }
    // Descend the left-most path of interpreted-bit-1 nodes.
    while (!is_leaf(t)) {
      if (interpreted_bit(2 * t)) {
        t = 2 * t;
      } else if (interpreted_bit(2 * t + 1)) {
        t = 2 * t + 1;
      } else {
        return kBottom;
      }
    }
    const Key found = static_cast<Key>(t - leaf_base_);
    return found < u_ ? found : kNoKey;  // padding keys >= u never inserted
  }

  /// Test-only inspector: recomputes what the interpreted bit *should* be
  /// in a quiescent state (OR over leaves) and compares; used by the
  /// IB0/IB1 invariant tests.
  bool quiescent_bit_reference(uint64_t t) {
    if (is_leaf(t)) return interpreted_bit(t);
    return quiescent_bit_reference(2 * t) || quiescent_bit_reference(2 * t + 1);
  }

  NodeArena& arena() noexcept { return *arena_; }

  /// Destruction-time drain (owner's destructor, trie quiescent by
  /// contract): hand every pooled update node still resident in the
  /// latest lists or dNodePtr slots back to its pool, so trie
  /// create/destroy churn reaches a steady state instead of growing the
  /// pools by each dead trie's resident set.
  ///
  /// Quiescence covers this trie's operations, not the notify-chain
  /// drains of its retired query announcements: those run after a grace
  /// period, possibly on another thread's EBR limbo and after this
  /// destructor, and each drops the pins its notifications hold on
  /// update nodes. So a resident node is not freed regardless of pins;
  /// it takes the ordinary path instead — retire it, then drop the
  /// residency pin of every dNodePtr slot holding it — and whichever
  /// unpin comes last, here or in a late drain, releases it. A node may
  /// sit in several slots at once (one latest list + many dNodePtr
  /// levels); the state-word CAS inside mark_retired dedups the retire.
  /// The guard keeps every node released here unrecycled until the walk
  /// is done.
  void drain_resident_for_destruction() {
    ebr::Guard g;
    auto retire = [](UpdateNode* u) {
      if (u != nullptr) retire_update(u);
    };
    for (uint64_t x = 0; x < static_cast<uint64_t>(u_); ++x) {
      UpdateNode* u = latest_[x].load(std::memory_order_relaxed);
      while (u != nullptr) {
        UpdateNode* next = u->latest_next.load(std::memory_order_relaxed);
        retire(u);
        u = next;
      }
    }
    for (uint64_t t = 1; t < leaf_base_; ++t) {
      retire(dnodeptr_[t].load(std::memory_order_relaxed));
    }
    for (uint64_t t = 1; t < leaf_base_; ++t) {
      if (DelNode* d = dnodeptr_[t].load(std::memory_order_relaxed)) {
        unpin_update(d);
      }
    }
  }

 private:
  /// dNodePtr[t]; null is t's initial dummy.
  DelNode* read_dnodeptr(uint64_t t) {
    Stats::count_read();
    return dnodeptr_[t].load();
  }

  /// Key of dNodePtr[t]'s node: a null slot (t's initial dummy) has the
  /// leftmost leaf key of t's subtrie.
  Key dkey(uint64_t t, const DelNode* d) const noexcept {
    return d != nullptr ? d->key : static_cast<Key>((t << height(t)) - leaf_base_);
  }

  /// dNodePtr residency holds one pin per slot: `desired` is pinned
  /// before the CAS (it is the caller's own live node, so try_pin cannot
  /// fail), the displaced node's residency pin is dropped on success,
  /// desired's fresh pin on failure. A null `expected` holds no pin.
  bool cas_dnodeptr(uint64_t t, DelNode* expected, DelNode* desired) {
    desired->try_pin();
    bool ok = dnodeptr_[t].compare_exchange_strong(expected, desired);
    Stats::count_cas(ok);
    if (DelNode* drop = ok ? expected : desired) unpin_update(drop);
    return ok;
  }

  const Key u_;
  const uint32_t b_;
  const uint64_t leaf_base_;
  NodeArena* arena_;
  std::unique_ptr<std::atomic<UpdateNode*>[]> latest_;
  std::unique_ptr<std::atomic<DelNode*>[]> dnodeptr_;
};

}  // namespace lfbt
