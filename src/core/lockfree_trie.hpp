// The lock-free, linearizable binary trie of Section 5 — the paper's
// headline contribution — extended with a *native, symmetric* successor:
// the announcement/notification machinery is mirrored inside this one
// structure, so both ordered queries read the same abstract state.
//
// A dynamic set over U = {0..u-1} supporting
//   contains(x)      O(1) worst case,
//   insert(x)        O(ċ² + log u) amortized,
//   erase(x)         O(ċ² + c̃ + log u) amortized,
//   predecessor(y)   O(ċ² + c̃ + log u) amortized, linearizable,
//   successor(y)     O(ċ² + c̃ + log u) amortized, linearizable,
// where ċ is point contention and c̃ overlapping-interval contention.
//
// Components (Section 5.1, plus the symmetric mirrors):
//  * the relaxed binary trie (TrieCore) for the O(log u) bit updates and
//    the wait-free RelaxedPredecessor / RelaxedSuccessor traversals;
//  * per-key latest lists (latest[x] plus latestNext), length <= 2, whose
//    first *activated* node encodes membership;
//  * the U-ALL / RU-ALL update announcement lists (AnnounceList), joined
//    by the SU-ALL — an *ascending* copy traversed by successor
//    operations with announced positions, the exact mirror image of the
//    descending RU-ALL that predecessor operations traverse;
//  * the P-ALL announcement list with per-query notify lists (PAll /
//    NotifyList), holding single-direction announcements and the fused
//    direction pairs (PredecessorNode::dir == QueryDir::kBoth);
//    notifiers record the directional threshold and U-ALL extremum each
//    target direction needs;
//  * embedded Predecessor AND Successor operations inside every Delete,
//    executed as two *fused* direction-pair queries (delPred/delSucc
//    from the first, delPred2/delSucc2 from the second), consumed by
//    the ⊥-fallbacks of the two query directions (Definition 5.1 TL
//    graph; the successor graph's edges point up the key order).
//
// Why native symmetry (vs the retired key-mirrored companion view): one
// trie means one abstract state, so histories mixing predecessor and
// successor — including same-key update races — are linearizable on a
// single object, and updates stop paying for a second full trie. An
// insert pays one extra announcement cell; a delete pays two embedded
// fused queries — one P-ALL announcement each, answering both
// directions from a single announce point, where the pre-fused design
// ran four single-direction helpers. See docs/DESIGN.md, "Symmetric
// successor" and "Fused bidirectional embedded queries", for the
// linearization arguments.
//
// Query hot path: helpers draw their working sets from a per-thread
// scratch arena (sync/scratch.hpp — small-inline vectors, sorted-set
// membership instead of O(n²) scans), and announcement nodes are
// recycled through the EBR substrate once they leave the P-ALL
// (QueryNodePool in lists/pall.hpp), so a steady-state query performs no
// heap allocation at all. Every operation that touches the P-ALL runs
// inside an ebr::Guard; that guard is what makes both the node pool's
// pop and the recycled nodes' reuse ABA-free.
//
// Progress: lock-free. Operations that lose the latest[x] CAS help the
// winner activate (HelpActivate) and return; predecessor and successor
// operations never help updates — they instead extract a correct answer
// from announcements and notifications, which is the paper's key
// departure from classic helping designs.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "lists/announce_list.hpp"
#include "lists/pall.hpp"
#include "query/range_scan.hpp"
#include "relaxed/trie_core.hpp"
#include "sync/scratch.hpp"

namespace lfbt {

class LockFreeBinaryTrie {
 public:
  explicit LockFreeBinaryTrie(Key universe);

  /// Requires quiescence (no concurrent operations), like any container
  /// destructor. Hands every pooled update node still resident in the
  /// trie back to the process-wide pools, so create/destroy churn
  /// reaches a steady-state footprint; only nodes kept alive by stalled
  /// test announcements stay out (bounded by the injected crash count).
  ~LockFreeBinaryTrie();

  Key universe() const noexcept { return core_.universe(); }

  /// Paper Search (l.121–124). O(1), linearizable.
  bool contains(Key x);

  /// Paper Insert (l.162–180). Linearized at the status flip of its INS
  /// node (possibly performed by a helper).
  void insert(Key x);

  /// Paper Delete (l.181–206). Linearized at the status flip of its DEL
  /// node. Runs exactly TWO embedded fused queries (each answering both
  /// directions from one announce point) whose results feed concurrent
  /// queries' ⊥-fallbacks in both directions.
  void erase(Key x);

  /// Paper Predecessor (l.253–256): largest key < y in S at the
  /// linearization point, or kNoKey (-1). y in [0, universe()].
  Key predecessor(Key y);

  /// Mirror-image Successor: smallest key > y in S at the linearization
  /// point, or kNoKey (-1). y in [-1, universe()). Linearizable against
  /// the same abstract state as every other operation — no companion
  /// view is involved (see the header comment and docs/DESIGN.md).
  Key successor(Key y);

  /// Ascending keys of S ∩ [lo, hi], at most `limit`, appended to `out`;
  /// returns the number appended. Delegates to the validated walk below,
  /// so the common quiet-window case is a fully atomic observation at no
  /// extra cost beyond two epoch reads; under interference it degrades to
  /// the repository-wide weak (per-step) contract of query/range_scan.hpp
  /// after the bounded retries. Callers who need the atomicity FLAG use
  /// range_scan_validated directly.
  std::size_t range_scan(Key lo, Key hi, std::size_t limit,
                         std::vector<Key>& out) {
    return range_scan_validated(lo, hi, limit, out).n;
  }

  /// Epoch-validated scan: the successor walk bracketed by reads of this
  /// structure's update epoch (bumped by every successful insert/erase
  /// between its linearization and its return). Unchanged epoch => the
  /// whole scan linearizes — the report is S ∩ [lo, hi] (lowest `limit`
  /// keys) at one instant — and the result says atomic == true. A moved
  /// epoch discards the walk and retries, at most `max_retries` times,
  /// then keeps one per-step walk flagged atomic == false. Soundness:
  /// docs/DESIGN.md "Atomic scans".
  ScanResult range_scan_validated(Key lo, Key hi, std::size_t limit,
                                  std::vector<Key>& out,
                                  uint32_t max_retries = kDefaultScanRetries) {
    assert(lo >= 0 && lo < universe() && hi >= lo);
    return epoch_validated_scan(
        *this, [this] { return upd_epoch_.load(); }, lo,
        hi < universe() ? hi : universe() - 1, limit, out, max_retries);
  }

  /// Monotone count of completed membership changes (the scan-validation
  /// handshake; also exposed for the sharded layer's tests).
  uint64_t update_epoch() const noexcept { return upd_epoch_.load(); }

  /// Number of keys currently in S, backed by one per-structure atomic
  /// counter touched once per *successful* update (one fetch_add next to
  /// the dozen CASes each update already performs). Approximate while
  /// updates are in flight, but conservatively so: the increment precedes
  /// the insert's linearizing CAS and the decrement follows the delete's
  /// activation, so at every instant size() >= |S|. Hence empty() == true
  /// is a true quiescent-style observation ("no key was present at the
  /// moment of the read") that ShardedTrie's cross-shard queries use
  /// to skip shards in O(1). At quiescence size() is exact.
  std::size_t size() const noexcept {
    const int64_t v = size_.load();
    return v > 0 ? static_cast<std::size_t>(v) : 0;
  }
  bool empty() const noexcept { return size() == 0; }

  std::size_t memory_reserved() const noexcept { return arena_.bytes_reserved(); }
  TrieCore& core_for_test() noexcept { return core_; }

  /// Test-only fault injection: runs Insert(x) up to and including its
  /// activation (linearization, l.174) and then "crashes" — never fixing
  /// the trie bits, notifying, or retracting its announcement. Returns
  /// false if x was already present. Models a thread dying mid-insert;
  /// correctness must then come from the permanent U-ALL announcement.
  bool stall_insert_for_test(Key x);

  /// Test-only fault injection: runs Delete(x) through activation and the
  /// second embedded fused query (l.201 + mirror), then "crashes" —
  /// leaving its interpreted bits stale and its two fused announcements
  /// in the P-ALL forever. Models the adversary Section 5's ⊥-fallback
  /// (Definition 5.1) exists for: both directions' fallbacks must
  /// recover through the SAME fused announcement. Returns false if x
  /// was absent.
  bool stall_delete_for_test(Key x);

 private:
  /// What one fused helper invocation returns: the direction answers the
  /// caller asked for (the inert side stays kNoKey) and the announcement
  /// node, which the caller must retire via retire_query_node().
  struct QueryAnswer {
    Key pred = kNoKey;
    Key succ = kNoKey;
    PredecessorNode* node = nullptr;
  };

  void announce(UpdateNode* u);  // insert into U-ALL, RU-ALL, SU-ALL (order!)
  void retract(UpdateNode* u);   // remove in the same order
  void help_activate(UpdateNode* u);                       // l.128–136
  // One pass over the U-ALL serving both directions (l.137–145 and its
  // mirror): first-activated nodes with key < x into *below, key > x
  // into *above; either sink may be null (single-direction callers).
  void traverse_uall_fused(Key x, UallBufs* below, UallBufs* above);
  void notify_query_ops(UpdateNode* u);                    // l.146–155
  void traverse_position_list(PredecessorNode* p, bool is_pred,
                              DirScratch& ds);             // l.257–269
  // l.207–252 and its mirror, fused: one announcement, one Q snapshot,
  // one notify-list pass and one U-ALL pass answer the direction(s)
  // `dir` selects (kBoth for a Delete's embedded pair; kPred/kSucc run
  // with the other side inert, preserving the single-direction proofs).
  QueryAnswer query_helper_fused(Key y, QueryDir dir);
  Key direction_answer(Key y, bool is_pred, PredecessorNode* p_node, Key r0,
                       QueryScratch& sc, DirScratch& ds);  // l.228–252
  Key bottom_fallback(Key y, bool is_pred, PredecessorNode* p_node,
                      QueryScratch& sc, DirScratch& ds);   // l.230–251

  /// Detach a finished query announcement from the P-ALL and hand it to
  /// the recycling pool. The drain of its notify chain (and of the pins
  /// those notifications hold on update nodes) happens after the EBR
  /// grace period — see retire_query_announcement (core/trie_pools.hpp).
  void retire_query_node(PredecessorNode* p) {
    pall_.remove_for_reuse(p);  // l.255/206: retract the announcement
    retire_query_announcement(p);
  }

  /// Reclamation trigger: retire `u` once it is provably superseded
  /// (not first-activated) and its operation completed. Called by the
  /// superseding op AND by u's own op at its end — between them every
  /// interleaving is covered, and UpdateNode's state CAS dedups.
  void try_retire_update(UpdateNode* u) {
    if (u == nullptr || !u->pooled() || !u->completed.load()) return;
    if (core_.first_activated(u)) return;
    retire_update(u);
  }

  NodeArena arena_;
  TrieCore core_;
  /// Reclamation staging for retired RU-ALL/SU-ALL cells (their pointers
  /// escape into position words, so they need the pinned-set scavenge of
  /// reclaim/cell_quarantine.hpp). Owned, but deliberately not a member:
  /// stage-1 retirements may outlive the trie in other threads' EBR
  /// limbo, so it is refcounted and self-deleting — the destructor only
  /// detaches. Declared before the lists, which capture the pointer.
  CellQuarantine* quarantine_;
  AnnounceList uall_;
  AnnounceList ruall_;
  AnnounceList suall_;  // ascending mirror of the RU-ALL (successor ops)
  PAll pall_;
  // |S| tracker for size()/empty(). Updated only by the thread whose CAS
  // on latest[x] installed the node (helpers never touch it), so every
  // membership transition is counted exactly once. seq_cst keeps the
  // increment visible no later than the activation that makes the key
  // visible, and the decrement no earlier than the activation that removes
  // it — the "never undercounts" invariant documented at size().
  std::atomic<int64_t> size_{0};
  // Scan-validation epoch: bumped once per successful membership change,
  // strictly AFTER the activation (linearization) and before the wrapper
  // returns, by the installing thread only. Monotone — unlike size_ it is
  // never rolled back, so a CAS loser leaves it untouched. seq_cst
  // fetch_add/loads give the validation its real-time guarantee: an
  // update that RETURNED before a scan's post-read is visible in it.
  std::atomic<uint64_t> upd_epoch_{0};
};

}  // namespace lfbt
