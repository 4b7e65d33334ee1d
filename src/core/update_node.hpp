// Node types of the (relaxed and lock-free) binary trie — the paper's
// Figure 4 / Figure 6 field tables, merged: the relaxed trie simply leaves
// the announcement-related fields unused and creates every node Active,
// under which the full-trie FindLatest/FirstActivated degenerate to the
// relaxed-trie versions (a plain read / a pointer comparison).
#pragma once

#include <atomic>
#include <cstdint>

#include "core/types.hpp"
#include "sync/atomic_copy.hpp"
#include "sync/min_register.hpp"

namespace lfbt {

struct UpdateNode;
struct DelNode;
struct PredecessorNode;

/// A cell of the U-ALL, RU-ALL or SU-ALL (paper Section 5.1, with the
/// SU-ALL being this repository's successor-direction mirror of the
/// RU-ALL). Cells are separate from update nodes so that several helpers
/// can race to announce the same update node: each splices its own cell,
/// then one claims canonicity via CAS on UpdateNode::ann_cell (see
/// AnnounceList for the full protocol).
///
/// `next` packs a Cell* with a removal mark in bit 1. Bit 0 stays clear:
/// it is the descriptor tag of AtomicCopyWord, which copies these words
/// into PredecessorNode::announce_position.
struct AnnCell {
  Key key = 0;
  UpdateNode* node = nullptr;
  std::atomic<uintptr_t> next{0};
  /// Reclamation link (reclaim/cell_quarantine.hpp): parks the owning
  /// CellQuarantine* between retirement and admission, then serves as the
  /// quarantine / free-list link. Deliberately separate from `next`, which
  /// must stay frozen after removal so stale traversals and the
  /// scavenger's pinned-set closure can keep walking retired chains.
  std::atomic<AnnCell*> retire_next{nullptr};
};

/// Tombstone installed in UpdateNode::ann_cell[slot] when the announcement
/// is retracted. The install CAS claims the retraction exactly once (the
/// owner and any helper may both retract, l.135), so only one of them
/// marks, unlinks and retires the cell — a second retract against a cell
/// that may already be recycled must never touch it. Traversals' canonicity
/// checks (`cell->node->ann_cell[slot] == cell`) reject the tombstone for
/// free; visibility of the announcement now ends at this CAS rather than at
/// the removal mark, which only strengthens the U-ALL-before-RU-ALL
/// removal-ordering argument (Lemma 5.19).
inline AnnCell* const kCellRetracted = reinterpret_cast<AnnCell*>(uintptr_t(1));

/// Announcement-list slots of UpdateNode::ann_cell. kUall/kRuall are the
/// paper's lists; kSuall is the ascending successor-direction mirror of
/// the RU-ALL added by the native symmetric successor (see
/// core/lockfree_trie.hpp).
enum : int { kUall = 0, kRuall = 1, kSuall = 2, kNumAnnSlots = 3 };

/// Direction of an announced query operation (paper Predecessor, or its
/// mirror-image Successor). Selects which position list the operation
/// traverses (RU-ALL / SU-ALL) and how notifications are filtered.
/// `kBoth` tags a *fused* direction-pair announcement: one P-ALL node
/// that answers predecessor AND successor from a single announce point —
/// the form every Delete embeds (core/lockfree_trie.cpp,
/// query_helper_fused). A fused announcement carries one position cell
/// per direction and receives both directions' thresholds/extrema in
/// each notification.
enum class QueryDir : uint8_t { kPred = 0, kSucc = 1, kBoth = 2 };

/// Paper lines 91–104. INS and DEL nodes share a base; DEL-only fields
/// live in DelNode.
///
/// Reclamation (reclaim/node_pool.hpp, core/trie_pools.hpp): pooled
/// update nodes carry a packed lifecycle word `reclaim` —
/// bits [1:0] state (live → retired → released), bit 2 "pooled" (storage
/// owned by a RecyclePool rather than an arena), bits [63:3] a pin count.
/// A pin is a reference that outlives EBR guards: one per dNodePtr slot
/// the node resides in, one per notify node referencing it, one for
/// being some INS node's `target`. Retirement (supersession +
/// completion) forbids new pins;
/// release fires when a retired node's last pin drops, and always routes
/// through ebr::retire so guarded readers stay safe. Arena-allocated
/// nodes (dummies, the relaxed trie's) run the same state machine with
/// the pooled bit clear, making every transition a harmless no-op.
struct UpdateNode {
  UpdateNode(Key k, NodeType t) : key(k), type(t) {}

  /// Immutable for the lifetime of each op; non-const only so the node
  /// pools can reset recycled nodes field-by-field (same reasoning as
  /// PredecessorNode::key below).
  Key key;
  NodeType type;

  /// Inactive(0) -> Active(1); an S-modifying op linearizes at this flip.
  std::atomic<uint8_t> status{0};

  /// Pointer to the previous update node in the latest[key] list; changes
  /// once to nullptr (the paper's ⊥).
  std::atomic<UpdateNode*> latest_next{nullptr};

  /// DEL node this operation wants to min-write (InsertBinaryTrie l.43).
  std::atomic<DelNode*> target{nullptr};

  /// Set by newer operations to tell this one to stop updating bits.
  std::atomic<bool> stop{false};

  /// Set when the op finished updating the trie + notifying (l.178/204).
  std::atomic<bool> completed{false};

  /// Canonical announcement cells (kUall / kRuall / kSuall); set once by
  /// the claim CAS in AnnounceList::insert, read by remove and by
  /// traversals for the canonicity check.
  std::atomic<AnnCell*> ann_cell[kNumAnnSlots] = {{nullptr}, {nullptr}, {nullptr}};

  bool is_del() const noexcept { return type == NodeType::kDel; }
  DelNode* as_del() noexcept;

  static constexpr uint8_t kInactive = 0;
  static constexpr uint8_t kActive = 1;

  // --- Reclamation word (see the class comment). ---

  static constexpr uint64_t kStateLive = 0;
  static constexpr uint64_t kStateRetired = 1;
  static constexpr uint64_t kStateReleased = 2;
  static constexpr uint64_t kStateMask = 3;
  static constexpr uint64_t kPooledBit = 4;
  static constexpr uint64_t kPinUnit = 8;

  std::atomic<uint64_t> reclaim{0};  // live, unpooled, zero pins

  bool pooled() const noexcept {
    return (reclaim.load(std::memory_order_relaxed) & kPooledBit) != 0;
  }

  /// Take a pin; fails (without side effect) once the node is retired.
  bool try_pin() noexcept {
    uint64_t w = reclaim.load();
    for (;;) {
      if ((w & kStateMask) != kStateLive) return false;
      if (reclaim.compare_exchange_weak(w, w + kPinUnit)) return true;
    }
  }

  /// Drop a pin. Returns true iff this call transitioned the node to
  /// Released (retired, last pin gone) — the caller then owns the free.
  bool unpin() noexcept {
    return claim_release(reclaim.fetch_sub(kPinUnit) - kPinUnit);
  }

  /// Live -> Retired, exactly-once; returns false if already retired by
  /// a racing trigger (supersession is observed by both the superseding
  /// op and the node's own op, so two retire calls are the normal case).
  bool mark_retired() noexcept {
    uint64_t w = reclaim.load();
    for (;;) {
      if ((w & kStateMask) != kStateLive) return false;
      if (reclaim.compare_exchange_weak(w, (w & ~kStateMask) | kStateRetired))
        return true;
    }
  }

  /// Retired + zero pins -> Released; returns true iff this call won the
  /// transition (and with it the right to free the storage).
  bool try_claim_release() noexcept { return claim_release(reclaim.load()); }

 private:
  bool claim_release(uint64_t w) noexcept {
    while ((w & kStateMask) == kStateRetired && (w / kPinUnit) == 0) {
      if (reclaim.compare_exchange_weak(w, (w & ~kStateMask) | kStateReleased))
        return true;
    }
    return false;
  }
};

struct DelNode : UpdateNode {
  /// b is the trie height; lower1Boundary initialises to b+1.
  DelNode(Key k, uint32_t b) : UpdateNode(k, NodeType::kDel), lower1(b + 1) {}

  /// All trie nodes at height <= upper0 that depend on this DEL node have
  /// interpreted bit 0. Only the creating Delete writes it (l.72),
  /// incrementing by one per completed DeleteBinaryTrie iteration.
  std::atomic<uint32_t> upper0{0};

  /// Min-register (paper's (b+1)-bit AND): trie nodes at height >= lower1
  /// that depend on this DEL node have interpreted bit 1.
  MinRegister lower1;

  // --- Full-trie (Section 5) fields; unused by the relaxed trie. ---
  //
  // Every Delete embeds TWO fused direction-pair queries (QueryDir::
  // kBoth): one before the claiming CAS whose announcement node and
  // results are recorded below, one after activation whose results land
  // in delPred2/delSucc2 (written before DeleteBinaryTrie, l.201 and its
  // mirror). The predecessor fields feed the ⊥-fallback of predecessor
  // queries exactly as in the paper; the successor mirrors feed the
  // reflected TL graph of Definition 5.1 (edges walking up-key).

  /// Announcement node of the first embedded fused query (immutable).
  /// Both directions' fallback pointer-matching (paper l.232–234 and its
  /// mirror) tests against this one node.
  PredecessorNode* del_query_node = nullptr;

  /// Recycling generation of del_query_node at embedding time. Query
  /// nodes are recycled through EBR once retired from the P-ALL
  /// (lists/pall.hpp, QueryNodePool); a fallback match must therefore
  /// also compare generations — a mismatch means the embedded query's
  /// node left the P-ALL before the observer's snapshot, which the
  /// algorithm already treats as "announcement no longer present".
  uint64_t del_query_gen = 0;

  /// Result of the first embedded Predecessor (immutable).
  Key del_pred = kNoKey;

  /// Result of the first embedded Successor (immutable).
  Key del_succ = kNoKey;

  /// Result of the second embedded Predecessor; kUnsetPred until written
  /// (before DeleteBinaryTrie, l.201).
  std::atomic<Key> del_pred2{kUnsetPred};

  /// Result of the second embedded Successor; kUnsetPred until written
  /// (before DeleteBinaryTrie, mirroring l.201).
  std::atomic<Key> del_succ2{kUnsetPred};
};

inline DelNode* UpdateNode::as_del() noexcept {
  return is_del() ? static_cast<DelNode*>(this) : nullptr;
}

/// A notification pushed by an update operation onto an announced query
/// node's notify list (paper lines 109–113). Immutable after publication.
/// A notification to a fused (QueryDir::kBoth) target is one node
/// carrying both directions' thresholds and extrema: the predecessor
/// direction reads the base fields, the successor direction the *_succ
/// mirrors. Single-direction targets use the base fields only, with the
/// target's own direction deciding their meaning (unchanged from the
/// pre-fused design).
struct NotifyNode {
  Key key = 0;
  UpdateNode* update_node = nullptr;
  /// Directional extremum of the notifier's U-ALL snapshot: for a
  /// predecessor-direction target, the INS node with the largest key <
  /// the target's key (paper l.153); for a successor-direction target,
  /// the INS node with the smallest key > the target's key. May be null.
  UpdateNode* update_node_ext = nullptr;
  /// Key of the RU-ALL (pred) / SU-ALL (succ) cell the query operation
  /// was visiting when notified.
  Key notify_threshold = kPosInf;
  /// Successor-direction mirrors, written only for kBoth targets: the
  /// INS node with the smallest key > the target's key, and the target's
  /// SU-ALL position key at notification time. kNegInf fails every
  /// successor acceptance test, so an unwritten mirror is inert.
  UpdateNode* update_node_ext_succ = nullptr;
  Key notify_threshold_succ = kNegInf;
  /// List link while published; free-list link while the node rests in
  /// NotifyNodePool (which is why it is atomic: a losing free-list popper
  /// may read it while the pool's reset overwrites it).
  std::atomic<NotifyNode*> next{nullptr};

  /// Each non-null update-node reference holds one pin on its referent
  /// (UpdateNode::try_pin), dropped when the owning announcement is
  /// retired and its notify chain drained (core/trie_pools.hpp).
};

/// Announcement of a Predecessor — or, with dir == kSucc, its mirror
/// Successor, or with dir == kBoth, a *fused* direction pair — in the
/// P-ALL (lines 105–108). The paper's name is kept: a successor
/// announcement is structurally a predecessor announcement under the
/// key-order reflection, and a fused announcement is both at one
/// announce point.
struct PredecessorNode {
  explicit PredecessorNode(Key k, QueryDir d = QueryDir::kPred)
      : key(k), dir(d) {}

  /// Immutable for the lifetime of each announcement; rewritten only by
  /// QueryNodePool::acquire when recycling a node no thread can
  /// reference (post-EBR-grace), which is why they are not const: the
  /// pool resets fields individually rather than ending and restarting
  /// the object's lifetime, so concurrent free-list poppers reading the
  /// atomic link race with nothing non-atomic.
  Key key;
  QueryDir dir;

  /// Insert-only list of notifications, newest first.
  std::atomic<NotifyNode*> notify_head{nullptr};

  /// Position-list cell currently visited by this query op — an RU-ALL
  /// cell for predecessor-direction ops, an SU-ALL cell for
  /// successor-direction ones; single-writer atomic copy target (see
  /// atomic_copy.hpp). Holds an AnnCell* word, possibly with the list
  /// mark (bit 1) set — strip with AnnCell masks. A fused (kBoth)
  /// announcement keeps its RU-ALL position here and its SU-ALL position
  /// in `succ_position`; use position() to select.
  AtomicCopyWord announce_position;

  /// SU-ALL position of a fused announcement (unused otherwise).
  AtomicCopyWord succ_position;

  /// The position word serving direction `side` (kPred or kSucc) of this
  /// announcement. Call only for a direction this node actually
  /// announces.
  AtomicCopyWord& position(QueryDir side) noexcept {
    return dir == QueryDir::kBoth && side == QueryDir::kSucc
               ? succ_position
               : announce_position;
  }

  // --- Stalled-announcement notify cap (core/lockfree_trie.cpp,
  // notify_query_ops). Once `notify_len` reaches kNotifyCap, notifiers
  // stop allocating notify nodes for this announcement and instead fold
  // their notification into two per-direction aggregate words, bounding
  // the footprint an announcement that is never retired (a crashed
  // operation) can pin. Index 0 is the predecessor-facing aggregate,
  // index 1 the successor-facing one.
  //
  //  * agg_present[s]: directional extremum (max below / min above) of
  //    the keys of suppressed INS notifications. A first-activated INS
  //    folded here was present at fold time, so for the announcement's
  //    own live window it is a valid r1 candidate (the consumer clamps
  //    it to its window).
  //  * agg_tl[s]: an online run of the ⊥-fallback's TL walk over the
  //    suppressed suffix — INS keys fold as the directional extremum,
  //    and a DEL whose key equals the current aggregate steps it to the
  //    delete's delPred2/delSucc2, exactly the edge the uncapped list
  //    would have contributed. Consumed as an extra X seed by
  //    bottom_fallback when this (or the matched embedded) announcement
  //    is capped.
  //
  // See docs/DESIGN.md, "Reclamation" for the validity argument and the
  // residual information-loss adversary this trades for boundedness.
  static constexpr uint32_t kNotifyCap = 512;
  std::atomic<uint32_t> notify_len{0};
  std::atomic<Key> agg_present[2] = {kNoKey, kNoKey};
  std::atomic<Key> agg_tl[2] = {kNoKey, kNoKey};
  bool notify_capped() const noexcept {
    return notify_len.load(std::memory_order_acquire) >= kNotifyCap;
  }

  /// Intrusive hook for the P-ALL (mark in bit 0: removed). Doubles as
  /// the free-list link while the node rests in QueryNodePool.
  std::atomic<uintptr_t> pall_next{0};

  // --- QueryNodePool bookkeeping (lists/pall.hpp); the pool's
  // per-field reset preserves both across recycling. ---

  /// Incremented on every reuse; pointer matches against embedded-query
  /// references (DelNode::del_query_node) must also match the recorded
  /// generation.
  uint64_t gen = 0;
};

}  // namespace lfbt
