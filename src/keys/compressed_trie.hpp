// CompressedBitTrie: a path-compressed (crit-bit / PATRICIA) binary trie
// over the same Key universe contract as every other OrderedSet — built
// for the SPARSE universes the key-codec layer produces. The paper's
// TrieCore preallocates O(universe) slots (relaxed/trie_core.hpp), which
// is the right trade for dense small universes and an impossible one for
// the 2^32..2^62 encoded key spaces of keys/key_codec.hpp; this
// structure allocates O(n) nodes for n keys and skips every single-child
// chain, so an encoded 62-bit key costs O(min(62, log n)) pointer steps
// instead of 62.
//
// Concurrency model (TKTRIE2-style, the exemplar's split):
//   * writes are mutex-serialized, and every tree mutation is published
//     by ATOMIC child-pointer stores whose every intermediate state is a
//     valid tree for some abstract set (a compressed insert or erase is
//     a single splice; the uncompressed mode's multi-store erase only
//     prunes empty chains after the one store that removes the key);
//   * contains() is lock-free and linearizable with no validation: node
//     fields other than the child pointers are immutable after publish,
//     retired subtrees stay intact under EBR, and the Harris-style
//     argument applies — the answer was true at the moment the decisive
//     pointer was read;
//   * predecessor/successor/range_scan are lock-free OPTIMISTIC reads
//     under version validation: a seqlock-style version word is bumped
//     to odd before and even after every mutating write; a traversal
//     that brackets an unchanged even version observed a quiescent tree
//     and linearizes anywhere inside the bracket. After
//     kOptimisticRetries failed brackets the reader takes the write
//     mutex and answers exactly (bounded, honest — never a weak answer
//     dressed as a strong one).
//
// This is a deliberate departure from the paper's lock-free-updates
// design and is documented as such (docs/DESIGN.md, "Key encoding"):
// the announcement machinery's proofs lean on the static trie shape, so
// the dynamic-shape variant trades update lock-freedom for arbitrary
// universes; reads — the paper's hard part — stay lock-free.
// Differential and linearizability tests drive it against the
// uncompressed core trie on shared universes (tests/test_keys.cpp).
//
// `compress_paths = false` disables skip compression: inserts then
// materialise one internal node per bit level, exactly the pointer-
// chasing baseline E17's skip-compression panel measures against.
#pragma once

#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "core/types.hpp"
#include "query/range_scan.hpp"
#include "sync/ebr.hpp"

namespace lfbt {

class CompressedBitTrie {
 public:
  /// Bounded optimism: failed version brackets before an ordered read
  /// falls back to taking the write mutex.
  static constexpr int kOptimisticRetries = 16;

  explicit CompressedBitTrie(Key universe, bool compress_paths = true)
      : u_(universe),
        width_(static_cast<uint32_t>(std::bit_width(
            static_cast<uint64_t>(universe < 2 ? 2 : universe) - 1))),
        compress_(compress_paths) {
    assert(universe >= 1);
  }

  CompressedBitTrie(const CompressedBitTrie&) = delete;
  CompressedBitTrie& operator=(const CompressedBitTrie&) = delete;

  /// Quiescence required, like any container destructor. Nodes retired
  /// earlier may still sit in EBR limbo; their deleters are self-
  /// contained (plain delete), so they outlive the structure safely.
  ~CompressedBitTrie() { free_subtree(root_.load(std::memory_order_relaxed)); }

  Key universe() const noexcept { return u_; }
  bool compress_paths() const noexcept { return compress_; }

  /// Lock-free, linearizable (see header: Harris-style argument).
  bool contains(Key x) {
    assert(x >= 0 && x < u_);
    ebr::Guard g;
    const Node* n = root_.load(std::memory_order_acquire);
    while (n != nullptr && !n->leaf) {
      n = n->child[bit(x, n->bit)].load(std::memory_order_acquire);
    }
    return n != nullptr && n->key == x;
  }

  void insert(Key x) {
    assert(x >= 0 && x < u_);
    std::lock_guard lock(mu_);
    std::atomic<Node*>* slot = &root_;
    Node* cur = slot->load(std::memory_order_relaxed);
    // Descend to the attach point: the first null slot (uncompressed
    // mode), or the node whose crit bit is at or below the divergence.
    if (compress_) {
      if (cur == nullptr) {
        publish(slot, new_leaf(x));
        return;
      }
      Node* probe = cur;
      while (!probe->leaf) {
        probe = probe->child[bit(x, probe->bit)].load(
            std::memory_order_relaxed);
      }
      if (probe->key == x) return;  // present; no version bump
      const uint32_t d = diverge_bit(x, probe->key);
      while (!cur->leaf && cur->bit < d) {
        slot = &cur->child[bit(x, cur->bit)];
        cur = slot->load(std::memory_order_relaxed);
      }
      Node* in = new_internal(d, x);
      in->child[bit(x, d)].store(new_leaf(x), std::memory_order_relaxed);
      in->child[bit(x, d) ^ 1].store(cur, std::memory_order_relaxed);
      publish(slot, in);
    } else {
      uint32_t depth = 0;
      while (cur != nullptr && !cur->leaf) {
        slot = &cur->child[bit(x, cur->bit)];
        depth = cur->bit + 1;
        cur = slot->load(std::memory_order_relaxed);
      }
      if (cur != nullptr) return;  // full-depth leaf ⇒ x itself
      // Build the whole single-child chain privately, publish with one
      // store: bits depth..width-1, each its own internal node — the
      // uncompressed cost model.
      Node* sub = new_leaf(x);
      for (uint32_t b2 = width_; b2-- > depth;) {
        Node* in = new_internal(b2, x);
        in->child[bit(x, b2)].store(sub, std::memory_order_relaxed);
        sub = in;
      }
      publish(slot, sub);
    }
  }

  void erase(Key x) {
    assert(x >= 0 && x < u_);
    std::lock_guard lock(mu_);
    if (compress_) {
      std::atomic<Node*>* slot = &root_;
      std::atomic<Node*>* parent_slot = nullptr;
      Node* parent = nullptr;
      Node* cur = slot->load(std::memory_order_relaxed);
      int side = 0;
      while (cur != nullptr && !cur->leaf) {
        parent_slot = slot;
        parent = cur;
        side = bit(x, cur->bit);
        slot = &cur->child[side];
        cur = slot->load(std::memory_order_relaxed);
      }
      if (cur == nullptr || cur->key != x) return;
      begin_write();
      if (parent == nullptr) {
        root_.store(nullptr, std::memory_order_release);
      } else {
        // Single splice: the sibling subtree replaces the parent.
        parent_slot->store(
            parent->child[side ^ 1].load(std::memory_order_relaxed),
            std::memory_order_release);
        retire_node(parent);
      }
      retire_node(cur);
      end_write();
    } else {
      // Track the path so empty chains can be pruned after the unlink.
      std::vector<std::pair<Node*, int>> path;
      path.reserve(width_);
      std::atomic<Node*>* slot = &root_;
      Node* cur = slot->load(std::memory_order_relaxed);
      while (cur != nullptr && !cur->leaf) {
        const int side = bit(x, cur->bit);
        path.emplace_back(cur, side);
        slot = &cur->child[side];
        cur = slot->load(std::memory_order_relaxed);
      }
      if (cur == nullptr) return;
      assert(cur->key == x);
      begin_write();
      slot->store(nullptr, std::memory_order_release);  // removes the key
      retire_node(cur);
      // Prune now-childless internals bottom-up; the set is unchanged by
      // every one of these stores.
      while (!path.empty()) {
        auto [node, side] = path.back();
        path.pop_back();
        if (node->child[side ^ 1].load(std::memory_order_relaxed) != nullptr) {
          break;
        }
        std::atomic<Node*>* pslot =
            path.empty() ? &root_ : &path.back().first->child[path.back().second];
        pslot->store(nullptr, std::memory_order_release);
        retire_node(node);
      }
      end_write();
    }
    count_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Largest key < y, or kNoKey; y in [0, universe()]. Optimistic with
  /// version validation, mutex fallback — linearizable either way.
  Key predecessor(Key y) {
    assert(y >= 0 && y <= u_);
    return ordered_read([&] { return pred_impl(y); });
  }

  /// Smallest key > y, or kNoKey; y in [-1, universe()).
  Key successor(Key y) {
    assert(y >= -1 && y < u_);
    return ordered_read([&] { return succ_impl(y); });
  }

  std::size_t range_scan(Key lo, Key hi, std::size_t limit,
                         std::vector<Key>& out) {
    return successor_range_scan(*this, lo, hi < u_ ? hi : u_ - 1, limit, out);
  }

  /// Validated scan over the seqlock version: the epoch reader spins out
  /// write windows (odd versions), so an unchanged even bracket means no
  /// write STARTED or COMPLETED inside it — the walk observed one state.
  /// Once the bounded retries are spent, the walk is redone under the
  /// write mutex, like ordered_read's fallback: no write can run while it
  /// is held, so that walk observes one state too and the scan is always
  /// atomic. (Its successor steps never fall back themselves: with the
  /// writers excluded, every bracket validates.)
  ScanResult range_scan_validated(Key lo, Key hi, std::size_t limit,
                                  std::vector<Key>& out,
                                  uint32_t max_retries = kDefaultScanRetries) {
    assert(lo >= 0 && lo < u_ && hi >= lo);
    const Key top = hi < u_ ? hi : u_ - 1;
    const std::size_t base = out.size();
    ScanResult r = epoch_validated_scan(
        *this,
        [this] {
          uint64_t v;
          while (((v = version_.load(std::memory_order_seq_cst)) & 1) != 0) {
            std::this_thread::yield();
          }
          return v;
        },
        lo, top, limit, out, max_retries);
    if (r.atomic) return r;
    out.resize(base);
    std::lock_guard lock(mu_);
    r.n = successor_range_scan(*this, lo, top, limit, out);
    r.atomic = true;
    return r;
  }

  /// Exact at quiescence; conservative (never false-positive-empty)
  /// while updates are in flight — the counter moves under the write
  /// mutex, after the insert publish / before the erase returns.
  std::size_t size() const noexcept {
    const int64_t v = count_.load(std::memory_order_relaxed);
    return v > 0 ? static_cast<std::size_t>(v) : 0;
  }
  bool empty() const noexcept { return size() == 0; }

  /// Live node bytes (allocated minus retired-to-EBR). Limbo bytes are
  /// bounded by the grace period and excluded so retired-node deleters
  /// stay self-contained (they may run after this structure died).
  std::size_t memory_reserved() const noexcept {
    const int64_t v = bytes_.load(std::memory_order_relaxed);
    return v > 0 ? static_cast<std::size_t>(v) : 0;
  }

 private:
  struct Node {
    const Key key;       // leaf: the key; internal: any key whose bits
                         // [0, bit) equal the subtree's shared prefix —
                         // an invariant because splices above never edit
                         // the subtree and erases preserve the prefix.
    const uint32_t bit;  // internal: crit-bit depth (0 = MSB); leaf: width
    const bool leaf;
    std::atomic<Node*> child[2];

    Node(Key k, uint32_t b2, bool is_leaf)
        : key(k), bit(b2), leaf(is_leaf), child{{nullptr}, {nullptr}} {}
  };

  int bit(Key x, uint32_t i) const noexcept {
    return static_cast<int>((static_cast<uint64_t>(x) >> (width_ - 1 - i)) & 1);
  }

  /// MSB-first index of the first differing bit of a and b (a != b).
  uint32_t diverge_bit(Key a, Key b) const noexcept {
    const uint64_t diff = static_cast<uint64_t>(a) ^ static_cast<uint64_t>(b);
    assert(diff != 0);
    return width_ - static_cast<uint32_t>(std::bit_width(diff));
  }

  Node* new_leaf(Key x) {
    count_.fetch_add(1, std::memory_order_relaxed);
    return alloc(x, width_, true);
  }
  Node* new_internal(uint32_t d, Key rep) { return alloc(rep, d, false); }

  Node* alloc(Key k, uint32_t b2, bool leaf) {
    bytes_.fetch_add(sizeof(Node), std::memory_order_relaxed);
    return new Node(k, b2, leaf);
  }

  void retire_node(Node* n) {
    bytes_.fetch_sub(sizeof(Node), std::memory_order_relaxed);
    ebr::retire(n);  // deleter is plain delete: safe past our lifetime
  }

  void begin_write() { version_.fetch_add(1, std::memory_order_seq_cst); }
  void end_write() { version_.fetch_add(1, std::memory_order_seq_cst); }

  /// Publish a freshly built subtree: the single store that makes an
  /// insert visible, bracketed by the version bumps.
  void publish(std::atomic<Node*>* slot, Node* sub) {
    begin_write();
    slot->store(sub, std::memory_order_release);
    end_write();
    if (sub->leaf) {
      // count already bumped in new_leaf
    }
  }

  template <class F>
  Key ordered_read(F&& f) {
    for (int attempt = 0; attempt < kOptimisticRetries; ++attempt) {
      const uint64_t v0 = version_.load(std::memory_order_seq_cst);
      if ((v0 & 1) != 0) {
        std::this_thread::yield();
        continue;
      }
      Key r;
      {
        ebr::Guard g;
        r = f();
      }
      if (version_.load(std::memory_order_seq_cst) == v0) return r;
    }
    std::lock_guard lock(mu_);  // exact answer, bounded wait
    return f();
  }

  /// One descent computing the deepest subtree that is entirely < y.
  /// At every node the shared prefix bits [0, d) (d = crit bit, or the
  /// full width at a leaf) are compared against y: a divergence where y
  /// holds the 1 puts the whole subtree below y (record, stop); where y
  /// holds the 0, above y (stop). A prefix match at an internal node
  /// descends by y's crit bit, recording the left child when going
  /// right — its keys share the prefix and drop to 0 where y has 1.
  /// Under a validated bracket the tree is quiescent, so the recorded
  /// subtree's max IS the predecessor; under a torn read it may return
  /// garbage, which the failed validation discards (never UB: all loads
  /// are atomic, retired nodes are EBR-protected).
  Key pred_impl(Key y) {
    Node* best = nullptr;
    Node* cur = root_.load(std::memory_order_acquire);
    if (static_cast<uint64_t>(y) >= (uint64_t{1} << width_)) {
      return subtree_max(cur);
    }
    while (cur != nullptr) {
      const uint32_t d = cur->leaf ? width_ : cur->bit;
      const uint64_t diff =
          d == 0 ? 0
                 : (static_cast<uint64_t>(cur->key ^ y) >> (width_ - d));
      if (diff != 0) {
        const uint32_t dv = diverge_bit(y, cur->key);
        assert(dv < d);
        if (bit(y, dv) == 1) best = cur;  // whole subtree < y
        break;
      }
      if (cur->leaf) break;  // exact prefix ⇒ key == y ⇒ not < y
      const int side = bit(y, d);
      if (side == 1) {
        if (Node* left = cur->child[0].load(std::memory_order_acquire)) {
          best = left;
        }
      }
      cur = cur->child[side].load(std::memory_order_acquire);
    }
    return subtree_max(best);
  }

  Key succ_impl(Key y) {
    Node* best = nullptr;
    Node* cur = root_.load(std::memory_order_acquire);
    if (y < 0) return subtree_min(cur);
    while (cur != nullptr) {
      const uint32_t d = cur->leaf ? width_ : cur->bit;
      const uint64_t diff =
          d == 0 ? 0
                 : (static_cast<uint64_t>(cur->key ^ y) >> (width_ - d));
      if (diff != 0) {
        const uint32_t dv = diverge_bit(y, cur->key);
        assert(dv < d);
        if (bit(y, dv) == 0) best = cur;  // whole subtree > y
        break;
      }
      if (cur->leaf) break;
      const int side = bit(y, d);
      if (side == 0) {
        if (Node* right = cur->child[1].load(std::memory_order_acquire)) {
          best = right;
        }
      }
      cur = cur->child[side].load(std::memory_order_acquire);
    }
    return subtree_min(best);
  }

  /// Max/min key of a subtree. Tolerates mid-erase intermediate states
  /// (a both-children-null internal) by returning kNoKey — such states
  /// only exist inside a write window, so the version bracket rejects
  /// the read; correctness never depends on the value returned here
  /// under interference.
  Key subtree_max(Node* n) {
    while (n != nullptr && !n->leaf) {
      Node* c = n->child[1].load(std::memory_order_acquire);
      if (c == nullptr) c = n->child[0].load(std::memory_order_acquire);
      n = c;
    }
    return n != nullptr ? n->key : kNoKey;
  }
  Key subtree_min(Node* n) {
    while (n != nullptr && !n->leaf) {
      Node* c = n->child[0].load(std::memory_order_acquire);
      if (c == nullptr) c = n->child[1].load(std::memory_order_acquire);
      n = c;
    }
    return n != nullptr ? n->key : kNoKey;
  }

  void free_subtree(Node* n) {
    if (n == nullptr) return;
    if (!n->leaf) {
      free_subtree(n->child[0].load(std::memory_order_relaxed));
      free_subtree(n->child[1].load(std::memory_order_relaxed));
    }
    bytes_.fetch_sub(sizeof(Node), std::memory_order_relaxed);
    delete n;
  }

  const Key u_;
  const uint32_t width_;
  const bool compress_;
  std::mutex mu_;
  std::atomic<Node*> root_{nullptr};
  // Seqlock version: odd inside a mutating write window. seq_cst pairs
  // with the readers' bracket loads (header comment).
  std::atomic<uint64_t> version_{0};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> bytes_{0};
};

}  // namespace lfbt
