#include "core/lockfree_trie.hpp"

#include <algorithm>
#include <cassert>

#include "core/trie_pools.hpp"
#include "sync/ebr.hpp"

namespace lfbt {
namespace {

/// Directional candidate combiner: keeps the largest key for predecessor
/// queries and the smallest for successor queries; kNoKey means "no
/// candidate yet" and never beats a real key.
void consider(Key& best, Key cand, bool is_pred) {
  if (cand == kNoKey) return;
  if (best == kNoKey) {
    best = cand;
  } else {
    best = is_pred ? std::max(best, cand) : std::min(best, cand);
  }
}

template <class Vec>
void consider_all(Key& best, const Vec& v, bool is_pred) {
  for (const UpdateNode* n : v) consider(best, n->key, is_pred);
}

/// CAS-fold `k` into a directional aggregate word: keep the largest key
/// for the predecessor-facing aggregate, the smallest for the
/// successor-facing one (kNoKey = empty).
void fold_extremum(std::atomic<Key>& agg, Key k, bool is_pred) {
  Key w = agg.load();
  while (w == kNoKey || (is_pred ? w < k : w > k)) {
    if (agg.compare_exchange_weak(w, k)) return;
  }
}

/// One step of the online TL walk over a capped announcement's
/// suppressed notifications (PredecessorNode::agg_tl): an INS folds its
/// key as the directional extremum; a DEL whose key equals the current
/// aggregate applies its TL edge, stepping the aggregate to delPred2 /
/// delSucc2 — the same move the uncapped fallback's walk would make. A
/// DEL of any other key is a no-op: it deletes a key the aggregate is
/// not standing on.
void fold_tl(std::atomic<Key>& agg, UpdateNode* u, bool is_pred) {
  if (u->type == NodeType::kIns) {
    fold_extremum(agg, u->key, is_pred);
    return;
  }
  auto* dn = static_cast<DelNode*>(u);
  Key w = agg.load();
  while (w == u->key) {
    // DEL nodes reach the notify stage only after delPred2/delSucc2 are
    // written (l.201 + mirror precede l.203); guard anyway.
    const Key d2 = is_pred ? dn->del_pred2.load() : dn->del_succ2.load();
    if (d2 == kUnsetPred) return;
    if (agg.compare_exchange_weak(w, d2)) return;
  }
}

/// The threshold / U-ALL extremum of notification `nn` as seen by
/// direction `is_pred` of its target `p`: a fused target keeps the
/// successor direction's pair in the *_succ mirrors, a single-direction
/// target uses the base fields for its own direction.
Key notify_threshold_for(const PredecessorNode* p, const NotifyNode* nn,
                         bool is_pred) {
  return p->dir == QueryDir::kBoth && !is_pred ? nn->notify_threshold_succ
                                               : nn->notify_threshold;
}
UpdateNode* notify_ext_for(const PredecessorNode* p, const NotifyNode* nn,
                           bool is_pred) {
  return p->dir == QueryDir::kBoth && !is_pred ? nn->update_node_ext_succ
                                               : nn->update_node_ext;
}

/// One direction's share of the notify-list pass (paper l.218–227 and
/// its mirror): acceptance tests are the paper's, reflected through the
/// key order for the successor side; dedup via the scratch seen-sets
/// replaces the old push_unique scans.
void accept_notification(const PredecessorNode* p, const NotifyNode* nn,
                         bool is_pred, DirScratch& ds) {
  const Key thr = notify_threshold_for(p, nn, is_pred);
  if (nn->update_node->type == NodeType::kIns) {
    const bool accept = is_pred ? thr <= nn->key : thr >= nn->key;
    if (accept && ds.i_notify_seen.insert(nn->update_node)) {
      ds.i_notify.push_back(nn->update_node);
    }
  } else {
    const bool accept = is_pred ? thr < nn->key : thr > nn->key;
    if (accept && ds.d_notify_seen.insert(nn->update_node)) {
      ds.d_notify.push_back(nn->update_node);
    }
  }
  // l.226–227: accept the notifier's U-ALL extremum when we were past
  // the position-list end at notification time and the notifier itself
  // is not an update we already account for via the position list.
  const Key end_threshold = is_pred ? kNegInf : kPosInf;
  if (thr == end_threshold && !ds.i_pos_set.contains(nn->update_node) &&
      !ds.d_pos_set.contains(nn->update_node)) {
    UpdateNode* ext = notify_ext_for(p, nn, is_pred);
    if (ext != nullptr && ds.i_notify_seen.insert(ext)) {
      ds.i_notify.push_back(ext);
    }
  }
}

}  // namespace

LockFreeBinaryTrie::LockFreeBinaryTrie(Key universe)
    : core_(universe, arena_),
      quarantine_(new CellQuarantine),
      uall_(kUall, /*descending=*/false, /*quarantine=*/nullptr),
      ruall_(kRuall, /*descending=*/true, quarantine_),
      suall_(kSuall, /*descending=*/false, quarantine_) {
  quarantine_->set_roots(&pall_, ruall_.head(), suall_.head());
}

LockFreeBinaryTrie::~LockFreeBinaryTrie() {
  core_.drain_resident_for_destruction();
  // Cells still chained belong to resident nodes' canonical announcements;
  // quiescence makes the raw walks safe.
  uall_.release_all_cells_for_destruction();
  ruall_.release_all_cells_for_destruction();
  suall_.release_all_cells_for_destruction();
  // Last: the quarantine flushes what it holds and severs the root
  // pointers into this object; it deletes itself once the final in-flight
  // stage-1 deleter (possibly on another thread's EBR limbo) lands.
  quarantine_->detach_and_drain();
}

bool LockFreeBinaryTrie::contains(Key x) {
  assert(x >= 0 && x < core_.universe());
  // The guard is new with update-node pooling: latest-list nodes may now
  // be recycled, and find_latest dereferences them.
  ebr::Guard guard;
  return core_.search(x);
}

void LockFreeBinaryTrie::announce(UpdateNode* u) {
  // U-ALL before RU-ALL before SU-ALL; retract() keeps the same order.
  // Lemma 5.19's argument needs visible U-ALL presence to imply visible
  // RU-ALL presence once activated; the mirrored argument for successor
  // needs the same of the SU-ALL, and both hold under this one ordering.
  uall_.insert(u);
  ruall_.insert(u);
  suall_.insert(u);
}

void LockFreeBinaryTrie::retract(UpdateNode* u) {
  uall_.remove(u);
  ruall_.remove(u);
  suall_.remove(u);
}

// Paper l.128–136.
void LockFreeBinaryTrie::help_activate(UpdateNode* u) {
  if (u->status.load() == UpdateNode::kInactive) {
    Stats::count_help();
    announce(u);
    u->status.store(UpdateNode::kActive);
    if (u->type == NodeType::kDel) {
      // l.133: stop the target of the Insert this Delete superseded.
      if (UpdateNode* ln = u->latest_next.load()) {
        if (DelNode* tg = ln->target.load()) tg->stop.store(true);
      }
    }
    u->latest_next.store(nullptr);  // l.134
    if (u->completed.load()) {      // l.135: owner finished; re-retract
      retract(u);
    }
  }
}

// Paper l.162–180. The guard covers notify_query_ops' P-ALL walk (its
// targets may be recycled announcement nodes).
void LockFreeBinaryTrie::insert(Key x) {
  assert(x >= 0 && x < core_.universe());
  ebr::Guard guard;
  UpdateNode* d_node = core_.find_latest_materialized(x);
  if (d_node->type != NodeType::kDel) return;  // l.164: x already in S
  UpdateNode* i_node = InsNodePool::acquire(x);
  i_node->latest_next.store(d_node);  // l.167
  // l.168: help stop the Delete the previous Insert targeted (ignore ⊥s).
  if (UpdateNode* ln = d_node->latest_next.load()) {
    if (DelNode* tg = ln->target.load()) tg->stop.store(true);
  }
  d_node->latest_next.store(nullptr);  // l.169
  size_.fetch_add(1);  // count before the linearizing CAS: size() >= |S|
  if (!core_.cas_latest(x, d_node, i_node)) {
    size_.fetch_sub(1);                   // lost the claim; x not inserted
    help_activate(core_.read_latest(x));  // l.171
    retire_unpublished(i_node);           // never entered a shared structure
    return;
  }
  announce(i_node);                                // l.173
  i_node->status.store(UpdateNode::kActive);       // l.174 — linearization
  upd_epoch_.fetch_add(1);  // scan validation: bump after linearization
  i_node->latest_next.store(nullptr);              // l.175
  core_.insert_binary_trie(i_node);                // l.176
  notify_query_ops(i_node);                        // l.177
  i_node->completed.store(true);                   // l.178
  retract(i_node);                                 // l.179
  // Reclamation triggers: the DEL node this insert superseded, and
  // (if a newer delete already claimed the latest slot) this op's own
  // node — the superseding-op trigger of that delete may have run before
  // `completed` was set, so the self-check closes the gap.
  try_retire_update(d_node);
  try_retire_update(i_node);
}

// Paper l.181–206 with the embedded queries FUSED: one direction-pair
// helper before the claiming CAS (producing delPred AND delSucc from a
// single announce point) and one after activation, before
// DeleteBinaryTrie (producing delPred2 AND delSucc2) — so, exactly as in
// the paper (l.201 precedes l.203), both second-query results are always
// written before this DEL node can reach a notify list. Two helper
// invocations, the paper's count (l.184 and l.200).
void LockFreeBinaryTrie::erase(Key x) {
  assert(x >= 0 && x < core_.universe());
  ebr::Guard guard;
  UpdateNode* i_node = core_.find_latest(x);
  if (i_node == nullptr || i_node->type != NodeType::kIns) return;  // l.183
  QueryAnswer q1 = query_helper_fused(x, QueryDir::kBoth);  // l.184 + mirror
  DelNode* d_node = DelNodePool::acquire(x, core_.b());
  d_node->latest_next.store(i_node);     // l.187
  d_node->del_pred = q1.pred;            // l.188
  d_node->del_succ = q1.succ;            // mirror of l.188
  d_node->del_query_node = q1.node;      // l.189 (one node, both directions)
  d_node->del_query_gen = q1.node->gen;
  i_node->latest_next.store(nullptr);    // l.190
  notify_query_ops(i_node);              // l.191 — help previous Insert notify
  if (!core_.cas_latest(x, i_node, d_node)) {
    help_activate(core_.read_latest(x));  // l.193
    retire_query_node(q1.node);           // l.194
    retire_unpublished(d_node);           // never entered a shared structure
    return;
  }
  announce(d_node);                               // l.196
  d_node->status.store(UpdateNode::kActive);      // l.197 — linearization
  size_.fetch_sub(1);  // x left S at l.197; decrement strictly after
  upd_epoch_.fetch_add(1);  // scan validation: bump after linearization
  if (DelNode* tg = i_node->target.load()) {      // l.198
    tg->stop.store(true);
  }
  d_node->latest_next.store(nullptr);             // l.199
  QueryAnswer q2 = query_helper_fused(x, QueryDir::kBoth);  // l.200 + mirror
  d_node->del_pred2.store(q2.pred);               // l.201
  d_node->del_succ2.store(q2.succ);               // mirror of l.201
  core_.delete_binary_trie(d_node);               // l.202
  notify_query_ops(d_node);                       // l.203
  d_node->completed.store(true);                  // l.204
  retract(d_node);                                // l.205
  retire_query_node(q1.node);                     // l.206
  retire_query_node(q2.node);
  // Reclamation triggers (see insert()).
  try_retire_update(i_node);
  try_retire_update(d_node);
}

// Paper l.137–145 and its successor mirror, fused into ONE pass over the
// ascending U-ALL: first-activated update nodes with key < x go to
// *below, with key > x to *above. A predecessor-only caller (above ==
// nullptr) stops at the first cell with key >= x, recovering the paper's
// prefix-walk cost; a successor-only caller filters the prefix away (the
// suffix walk's cost is O(U-ALL length) either way). Each update node
// appears at most once per walk — cells are claimed canonically
// (announce_list.hpp) and the walk only moves forward — so plain
// push_back replaces the old push_unique scan.
void LockFreeBinaryTrie::traverse_uall_fused(Key x, UallBufs* below,
                                             UallBufs* above) {
  for (AnnCell* c = uall_.next_visible(uall_.head()); c != uall_.tail();
       c = uall_.next_visible(c)) {
    Stats::count_read();
    if (c->key >= x && above == nullptr) break;
    if (c->key == x) continue;
    UallBufs* dst = c->key < x ? below : above;
    if (dst == nullptr) continue;
    UpdateNode* u = c->node;
    if (u->status.load() != UpdateNode::kInactive && core_.first_activated(u)) {
      (u->type == NodeType::kIns ? dst->ins : dst->del).push_back(u);
    }
  }
}

// Paper l.146–155, serving all three announcement kinds: the threshold
// is the target's current position in each list it traverses (RU-ALL
// for the predecessor direction, SU-ALL for the successor direction —
// both for a fused target) and the recorded U-ALL extremum is the
// directional one per direction (largest INS key below / smallest INS
// key above the target's key). A fused target receives ONE notify node
// carrying both directions' pairs.
void LockFreeBinaryTrie::notify_query_ops(UpdateNode* u) {
  QueryScratch& sc = QueryScratch::get();
  sc.notify_uall.clear();
  traverse_uall_fused(kPosInf, &sc.notify_uall, nullptr);  // l.147 — all keys
  const auto& ins = sc.notify_uall.ins;                    // ascending
  for (PredecessorNode* p = pall_.first_live(); p != nullptr;
       p = PAll::next_live(p)) {
    if (!core_.first_activated(u)) return;  // l.149
    if (p->notify_len.load(std::memory_order_acquire) >=
        PredecessorNode::kNotifyCap) {
      // Cap reached — this announcement belongs to a stalled (or
      // extraordinarily slow) operation. Fold the notification into the
      // per-direction aggregates instead of growing the list: no notify
      // node, no pins, bounded footprint. The first_activated check
      // above plays the role of the push path's l.160 revalidation
      // (same race window: a supersession between check and CAS).
      if (p->dir != QueryDir::kSucc) {
        if (u->type == NodeType::kIns) {
          fold_extremum(p->agg_present[0], u->key, true);
        }
        fold_tl(p->agg_tl[0], u, true);
      }
      if (p->dir != QueryDir::kPred) {
        if (u->type == NodeType::kIns) {
          fold_extremum(p->agg_present[1], u->key, false);
        }
        fold_tl(p->agg_tl[1], u, false);
      }
      continue;
    }
    NotifyNode* n = NotifyNodePool::acquire();
    // Pin discipline: each non-null update-node reference of a published
    // notify node holds one pin, dropped when the target announcement is
    // drained (retire_query_announcement). A pin failure means the node
    // was just retired, i.e. superseded AND completed:
    //  * for `u` itself that implies the push validation below would
    //    fail — bail out exactly as the paper's l.160 does;
    //  * for an extremum candidate the superseding delete activated
    //    inside the target query's live window, giving the query a
    //    linearization point at which the candidate's key is absent, so
    //    omitting it is sound (docs/DESIGN.md, Reclamation).
    if (!u->try_pin()) {
      NotifyNodePool::release(n);
      return;
    }
    n->key = u->key;
    n->update_node = u;
    if (p->dir != QueryDir::kSucc) {  // predecessor side (kPred / kBoth)
      // l.153: INS node in the U-ALL snapshot with largest key < p->key.
      for (std::size_t i = ins.size(); i-- > 0;) {
        if (ins[i]->key < p->key) {
          if (ins[i]->try_pin()) n->update_node_ext = ins[i];
          break;
        }
      }
      // l.154: the query op's current RU-ALL position key.
      n->notify_threshold =
          AnnounceList::strip(p->position(QueryDir::kPred).read())->key;
    }
    if (p->dir != QueryDir::kPred) {  // successor side (kSucc / kBoth)
      // Mirror of l.153: INS node with smallest key > p->key.
      UpdateNode* ext = nullptr;
      for (UpdateNode* cand : ins) {
        if (cand->key > p->key) {
          if (cand->try_pin()) ext = cand;
          break;
        }
      }
      const Key thr =
          AnnounceList::strip(p->position(QueryDir::kSucc).read())->key;
      if (p->dir == QueryDir::kBoth) {
        n->update_node_ext_succ = ext;
        n->notify_threshold_succ = thr;
      } else {
        n->update_node_ext = ext;
        n->notify_threshold = thr;
      }
    }
    // l.156–161: publish, revalidating first-activation before the CAS.
    bool sent = NotifyList::push(p, n, [&] { return core_.first_activated(u); });
    if (!sent) {
      unpin_update(u);  // abandoned: give the pins and the node back
      if (n->update_node_ext != nullptr) unpin_update(n->update_node_ext);
      if (n->update_node_ext_succ != nullptr)
        unpin_update(n->update_node_ext_succ);
      NotifyNodePool::release(n);
      return;
    }
    p->notify_len.fetch_add(1, std::memory_order_release);
  }
}

// Paper l.257–269 and its mirror. Advances the direction's position word
// with atomic copies and collects first-activated update nodes on that
// side of the key: key < p->key walking the descending RU-ALL for the
// predecessor direction, key > p->key walking the ascending SU-ALL for
// the successor direction. Each node appears at most once (canonical
// cells, strictly advancing single-writer position), so the sorted-set
// inserts serve as the membership index, not as dedup.
void LockFreeBinaryTrie::traverse_position_list(PredecessorNode* p,
                                                bool is_pred, DirScratch& ds) {
  AnnounceList& list = is_pred ? ruall_ : suall_;
  const int slot = is_pred ? kRuall : kSuall;
  AtomicCopyWord& pos = p->position(is_pred ? QueryDir::kPred : QueryDir::kSucc);
  const Key y = p->key;
  AnnCell* u = AnnounceList::strip(pos.read());
  do {
    pos.copy(list.next_word(u));  // l.262 — atomic copy
    u = AnnounceList::strip(pos.read());
    Stats::count_read();
    if (u != list.tail() && (is_pred ? u->key < y : u->key > y)) {
      UpdateNode* n = u->node;
      // Canonicity check (`ann_cell == u`) filters cells spliced by
      // helpers that lost the announcement claim; see announce_list.hpp.
      if (n->status.load() != UpdateNode::kInactive &&
          n->ann_cell[slot].load() == u && core_.first_activated(n)) {
        if (n->type == NodeType::kIns) {
          ds.i_pos_set.insert(n);
        } else if (ds.d_pos_set.insert(n)) {
          ds.d_pos.push_back(n);
        }
      }
    }
  } while (u != list.tail());
}

// Paper l.207–252 (PredHelper) and its key-order mirror, FUSED: one
// P-ALL announcement (tagged with `dir`), one Q snapshot, one pass over
// the notify list and one pass over the U-ALL serve every direction the
// caller asked for. With dir == kPred or kSucc the other side is inert
// and this is exactly the pre-fused single-direction helper (the paper's
// algorithm, reflected for kSucc), so predecessor()/successor() keep
// their proofs. With dir == kBoth the two directions share the announce
// point; each direction's acceptance tests, candidate sets and fallback
// are evaluated independently against that one announcement — see
// docs/DESIGN.md, "Fused bidirectional embedded queries".
LockFreeBinaryTrie::QueryAnswer LockFreeBinaryTrie::query_helper_fused(
    Key y, QueryDir dir) {
  const bool want_pred = dir != QueryDir::kSucc;
  const bool want_succ = dir != QueryDir::kPred;
  Stats::count_query_helper(dir == QueryDir::kBoth);

  QueryScratch& sc = QueryScratch::get();
  PredecessorNode* p_node = nullptr;
  Key r0_pred = kNoKey;
  Key r0_succ = kNoKey;

  // The helper body runs in a valve loop: if our OWN announcement's
  // notify list hit the cap (kNotifyCap completed updates landed inside
  // this one helper's window — pathological contention or preemption),
  // notifications were folded into lossy aggregates, so retire the
  // announcement and run the helper again rather than answer from them.
  // A bounded number of retries keeps the common case exact; the final
  // attempt, if still capped, answers from the aggregates (sound — see
  // direction_answer / bottom_fallback — at the cost of the residual
  // precision loss documented in docs/DESIGN.md, "Reclamation").
  constexpr int kMaxCapRetries = 3;
  for (int attempt = 0;; ++attempt) {
    sc.reset_query();

    p_node = QueryNodePool::acquire(y, dir);
    if (want_pred) {
      p_node->position(QueryDir::kPred)
          .store(AnnounceList::pack(ruall_.head()));
    }
    if (want_succ) {
      p_node->position(QueryDir::kSucc)
          .store(AnnounceList::pack(suall_.head()));
    }
    pall_.push(p_node);  // l.209 — the ONE announce point for all directions

    // l.210–214: snapshot the P-ALL suffix. Kept newest-first (raw chain
    // order); the fallback's oldest-first scans iterate it backwards, which
    // drops the per-query reverse the old path paid. Q deliberately
    // contains every announcement kind; the fallback matches only the
    // node a Delete embedded (plus its generation).
    for (PredecessorNode* it = PAll::next_raw(p_node); it != nullptr;
         it = PAll::next_raw(it)) {
      sc.q.push_back(it);
    }

    if (want_pred) traverse_position_list(p_node, true, sc.side[0]);  // l.215
    if (want_succ) traverse_position_list(p_node, false, sc.side[1]);
    r0_pred = want_pred ? core_.relaxed_predecessor(y) : kNoKey;  // l.216
    r0_succ = want_succ ? core_.relaxed_successor(y) : kNoKey;
    traverse_uall_fused(y, want_pred ? &sc.side[0].uall : nullptr,  // l.217
                        want_succ ? &sc.side[1].uall : nullptr);

    // l.218–227 and its mirror in ONE pass: each notification is offered
    // to every direction whose window contains its key, under that
    // direction's threshold/extremum (notify_threshold_for). The head
    // snapshot (Cnotify) is shared — both directions see the same prefix.
    for (NotifyNode* nn = NotifyList::head(p_node); nn != nullptr;
         nn = nn->next.load()) {
      if (want_pred && nn->key < y) accept_notification(p_node, nn, true, sc.side[0]);
      if (want_succ && nn->key > y) accept_notification(p_node, nn, false, sc.side[1]);
    }

    if (!p_node->notify_capped() || attempt >= kMaxCapRetries) break;
    retire_query_node(p_node);
  }

  if (p_node->notify_capped()) {
    // Retries exhausted: recover the suppressed in-window extremum as an
    // extra r1 candidate per direction. agg_present keys were folded by
    // first-activated (hence then-present) INS updates inside this
    // announcement's window, which is exactly this helper's window — a
    // valid linearizable candidate once clamped to the window.
    if (want_pred) {
      const Key a = p_node->agg_present[0].load();
      if (a != kNoKey && a < y) sc.side[0].notify_agg = a;
    }
    if (want_succ) {
      const Key a = p_node->agg_present[1].load();
      if (a != kNoKey && a > y) sc.side[1].notify_agg = a;
    }
  }

  QueryAnswer out;
  out.node = p_node;
  if (want_pred) {
    out.pred = direction_answer(y, true, p_node, r0_pred, sc, sc.side[0]);
  }
  if (want_succ) {
    out.succ = direction_answer(y, false, p_node, r0_succ, sc, sc.side[1]);
  }
  return out;  // l.252
}

// Paper l.228–252 for one direction: combine the announcement-derived
// candidate sets into r1, resolve a ⊥ from the relaxed traversal through
// the fallback, and take the directional extremum.
Key LockFreeBinaryTrie::direction_answer(Key y, bool is_pred,
                                         PredecessorNode* p_node, Key r0,
                                         QueryScratch& sc, DirScratch& ds) {
  // l.228: r1 over Iuall ∪ Inotify ∪ (Duall − Dpos) ∪ (Dnotify − Dpos),
  // taking the directional extremum (max below y / min above y).
  Key r1 = kNoKey;
  consider_all(r1, ds.uall.ins, is_pred);
  consider_all(r1, ds.i_notify, is_pred);
  for (UpdateNode* n : ds.uall.del) {
    if (!ds.d_pos_set.contains(n)) consider(r1, n->key, is_pred);
  }
  for (UpdateNode* n : ds.d_notify) {
    if (!ds.d_pos_set.contains(n)) consider(r1, n->key, is_pred);
  }
  // Capped own announcement (valve retries exhausted): the suppressed
  // in-window INS extremum joins the candidate set.
  consider(r1, ds.notify_agg, is_pred);

  // l.230–251: the trie traversal was blocked by concurrent updates.
  if (r0 == kBottom) {
    r0 = ds.d_pos.empty() ? kNoKey : bottom_fallback(y, is_pred, p_node, sc, ds);
  }
  consider(r1, r0, is_pred);
  return r1;
}

// Paper l.231–251, parameterized by direction: recover a candidate from
// embedded-query results when the relaxed traversal returned ⊥ and old
// deletes (Dpos: the Druall of the paper, or its SU-ALL mirror) are in
// flight. The TL graph's edges are key -> delPred2 for predecessor
// queries (strictly decreasing) and key -> delSucc2 for successor ones
// (strictly increasing); either way walks terminate at sinks. Every
// working set lives in the per-thread scratch; membership tests are
// sorted-set probes.
Key LockFreeBinaryTrie::bottom_fallback(Key y, bool is_pred,
                                        PredecessorNode* p_node,
                                        QueryScratch& sc, DirScratch& ds) {
  auto in_window = [&](Key k) { return is_pred ? k < y : k > y; };

  // l.232–234: the earliest-announced embedded-query node of a Dpos
  // delete that we saw in the P-ALL. sc.q is newest-first, so walk it
  // backwards (oldest-first) and stop at the first match — the same
  // early exit the paper's oldest-first Q scan has. The generation
  // check rejects an embedded node that was recycled into a fresh
  // announcement (equivalent to it having been physically unlinked
  // before our snapshot, which the algorithm already tolerates).
  PredecessorNode* p_prime = nullptr;
  for (std::size_t i = sc.q.size(); i-- > 0 && p_prime == nullptr;) {
    PredecessorNode* cand = sc.q[i];
    for (UpdateNode* n : ds.d_pos) {
      auto* dn = static_cast<DelNode*>(n);
      if (dn->del_query_node == cand && dn->del_query_gen == cand->gen) {
        p_prime = cand;
        break;
      }
    }
  }

  // l.231–236: L1 = update nodes that notified pNode', oldest-first.
  // The notify list is newest-first; "prepend if not already present"
  // (keep the newest occurrence, reverse the order) becomes append-if-
  // first-seen followed by one reverse.
  sc.l1.clear();
  sc.l_seen.clear();
  if (p_prime != nullptr) {
    for (NotifyNode* nn = NotifyList::head(p_prime); nn != nullptr;
         nn = nn->next.load()) {
      if (in_window(nn->key) && sc.l_seen.insert(nn->update_node)) {
        sc.l1.push_back(nn->update_node);
      }
    }
  }
  sc.l1.reverse();

  // l.237–241: L2 from our own notify list (the notifications we
  // *rejected* plus early INS ones — thresholds on the not-yet-passed
  // side of the key); every notifier seen here is dropped from L1.
  sc.l2.clear();
  sc.l_seen.clear();
  for (NotifyNode* nn = NotifyList::head(p_node); nn != nullptr;
       nn = nn->next.load()) {
    if (!in_window(nn->key)) continue;
    sc.l1.remove_value(nn->update_node);
    const Key thr = notify_threshold_for(p_node, nn, is_pred);
    const bool rejected_side = is_pred ? thr >= nn->key : thr <= nn->key;
    if (rejected_side && sc.l_seen.insert(nn->update_node)) {
      sc.l2.push_back(nn->update_node);
    }
  }
  sc.l2.reverse();

  // l.242–243: L = L1 ++ L2, then drop every DEL node that is not the
  // last update node in L with its key (direction-independent: pure
  // same-key recency). One backward pass with a key-set replaces the old
  // quadratic forward scan; the second reverse restores L's order.
  sc.l_filtered.clear();
  sc.key_seen.clear();
  const std::size_t n1 = sc.l1.size(), n2 = sc.l2.size();
  for (std::size_t i = n1 + n2; i-- > 0;) {
    UpdateNode* n = i < n1 ? sc.l1[i] : sc.l2[i - n1];
    const bool later_same_key = sc.key_seen.contains(n->key);
    sc.key_seen.insert(n->key);
    if (n->type == NodeType::kDel && later_same_key) continue;
    sc.l_filtered.push_back(n);
  }
  sc.l_filtered.reverse();

  // Definition 5.1: TL = (V, E), E = {key -> delPred2} (or delSucc2) for
  // DEL nodes in L. After l.243 there is at most one DEL node (hence one
  // outgoing edge) per key, and every edge strictly moves away from y
  // (down-key for predecessor, up-key for successor), so walks from X
  // terminate at sinks. Edges are sorted by source for binary search.
  sc.edges.clear();
  for (UpdateNode* n : sc.l_filtered) {
    if (n->type == NodeType::kDel) {
      auto* dn = static_cast<DelNode*>(n);
      Key d2 = is_pred ? dn->del_pred2.load() : dn->del_succ2.load();
      // DEL nodes reach notify lists only after delPred2/delSucc2 are
      // written (l.201 + mirror precede l.203); guard anyway.
      if (d2 != kUnsetPred) sc.edges.push_back({n->key, d2});
    }
  }
  std::sort(sc.edges.begin(), sc.edges.end(),
            [](const QueryScratch::Edge& a, const QueryScratch::Edge& b) {
              return a.from < b.from;
            });
  auto out_edge = [&](Key v) -> const Key* {
    const auto* it = std::lower_bound(
        sc.edges.begin(), sc.edges.end(), v,
        [](const QueryScratch::Edge& e, Key k) { return e.from < k; });
    return it != sc.edges.end() && it->from == v ? &it->to : nullptr;
  };

  // l.247–248: X = {delPred/delSucc of Dpos deletes} ∪ {keys of INS
  // nodes in L}.
  sc.x_set.clear();
  for (UpdateNode* n : ds.d_pos) {
    auto* dn = static_cast<DelNode*>(n);
    sc.x_set.push_back(is_pred ? dn->del_pred : dn->del_succ);
  }
  for (UpdateNode* n : sc.l_filtered) {
    if (n->type == NodeType::kIns) sc.x_set.push_back(n->key);
  }
  // Capped announcements contribute their online-TL aggregate as an
  // extra seed: for a capped p' (typically a crashed delete's embedded
  // announcement, whose list every later update folds into) the
  // aggregate replays exactly the INS-extremum + DEL-edge walk the
  // suppressed suffix of L1 would have produced; for our own capped
  // announcement it covers the suppressed part of L2. The walk below
  // still applies the known edges to the seed.
  const int agg_side = is_pred ? 0 : 1;
  if (p_prime != nullptr && p_prime->notify_capped()) {
    const Key a = p_prime->agg_tl[agg_side].load();
    if (a != kNoKey && in_window(a)) sc.x_set.push_back(a);
  }
  if (p_node->notify_capped()) {
    const Key a = p_node->agg_tl[agg_side].load();
    if (a != kNoKey && in_window(a)) sc.x_set.push_back(a);
  }

  // l.249–251: R = sinks reachable from X (chain walks; edges are
  // monotone, so a walk takes at most one step per edge), minus the keys
  // of Dpos deletes; answer with the directional extremum of R (the
  // paper guarantees non-emptiness; return -1 defensively).
  sc.key_seen.clear();
  for (UpdateNode* n : ds.d_pos) sc.key_seen.insert(n->key);
  Key best = kNoKey;
  for (Key v : sc.x_set) {
    for (std::size_t steps = 0; steps <= sc.edges.size(); ++steps) {
      const Key* next = out_edge(v);
      if (next == nullptr) break;
      v = *next;
    }
    if (!sc.key_seen.contains(v)) consider(best, v, is_pred);
  }
  return best;
}

bool LockFreeBinaryTrie::stall_insert_for_test(Key x) {
  ebr::Guard guard;
  UpdateNode* d_node = core_.find_latest_materialized(x);
  if (d_node->type != NodeType::kDel) return false;
  UpdateNode* i_node = InsNodePool::acquire(x);
  i_node->latest_next.store(d_node);
  d_node->latest_next.store(nullptr);
  size_.fetch_add(1);
  if (!core_.cas_latest(x, d_node, i_node)) {
    size_.fetch_sub(1);
    retire_unpublished(i_node);
    return false;
  }
  announce(i_node);
  i_node->status.store(UpdateNode::kActive);  // linearized — then crash.
  upd_epoch_.fetch_add(1);  // the membership change did happen
  return true;
}

bool LockFreeBinaryTrie::stall_delete_for_test(Key x) {
  ebr::Guard guard;
  UpdateNode* i_node = core_.find_latest(x);
  if (i_node == nullptr || i_node->type != NodeType::kIns) return false;
  QueryAnswer q1 = query_helper_fused(x, QueryDir::kBoth);
  DelNode* d_node = DelNodePool::acquire(x, core_.b());
  d_node->latest_next.store(i_node);
  d_node->del_pred = q1.pred;
  d_node->del_succ = q1.succ;
  d_node->del_query_node = q1.node;
  d_node->del_query_gen = q1.node->gen;
  i_node->latest_next.store(nullptr);
  notify_query_ops(i_node);
  if (!core_.cas_latest(x, i_node, d_node)) {
    retire_query_node(q1.node);
    retire_unpublished(d_node);
    return false;
  }
  announce(d_node);
  d_node->status.store(UpdateNode::kActive);  // linearized
  size_.fetch_sub(1);
  upd_epoch_.fetch_add(1);
  if (DelNode* tg = i_node->target.load()) tg->stop.store(true);
  d_node->latest_next.store(nullptr);
  // Neither fused announcement is ever retired: both stay in the P-ALL
  // forever, exactly like a crashed thread's.
  QueryAnswer q2 = query_helper_fused(x, QueryDir::kBoth);
  d_node->del_pred2.store(q2.pred);
  d_node->del_succ2.store(q2.succ);
  return true;  // crash before DeleteBinaryTrie / notify / retract.
}

// Paper l.253–256: the fused helper with the successor side inert is
// exactly the paper's Predecessor.
Key LockFreeBinaryTrie::predecessor(Key y) {
  assert(y >= 0 && y <= core_.universe());
  ebr::Guard guard;
  QueryAnswer a = query_helper_fused(y, QueryDir::kPred);
  retire_query_node(a.node);  // l.255
  return a.pred;
}

// Mirror of l.253–256: the fused helper with the predecessor side inert.
Key LockFreeBinaryTrie::successor(Key y) {
  assert(y >= -1 && y < core_.universe());
  ebr::Guard guard;
  QueryAnswer a = query_helper_fused(y, QueryDir::kSucc);
  retire_query_node(a.node);
  return a.succ;
}

}  // namespace lfbt
