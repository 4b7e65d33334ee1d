// Fault-injection tests: operations that "crash" at precise points of the
// Section 5 algorithm (via the stall_*_for_test hooks and raw latest-list
// surgery) must be helped to linearize, and predecessor AND successor
// queries must stay correct even when a crashed op leaves the relaxed
// trie's interpreted bits permanently stale — which deterministically
// exercises the announcement (Iuall) path and the ⊥-fallback /
// Definition 5.1 TL-graph path (in both directions: delPred2 edges walk
// down-key, delSucc2 edges up-key) that random stress rarely reaches.
#include <gtest/gtest.h>

#include "core/lockfree_trie.hpp"
#include "set_test_util.hpp"

namespace lfbt {
namespace {

TEST(Helping, InsertHelpsStalledPreActivationInsert) {
  // Crash point: after the latest[x] CAS, before announcement/activation.
  LockFreeBinaryTrie t(64);
  TrieCore& core = t.core_for_test();
  UpdateNode* dummy = core.find_latest_materialized(5);
  auto* stalled = core.arena().create<UpdateNode>(5, NodeType::kIns);
  stalled->latest_next.store(dummy);
  ASSERT_TRUE(core.cas_latest(5, dummy, stalled));
  // The stalled insert is not linearized yet: search reports absent.
  EXPECT_FALSE(t.contains(5));
  // A second insert loses the latest[5] CAS and must help-activate.
  t.insert(5);
  EXPECT_EQ(stalled->status.load(), UpdateNode::kActive);
  EXPECT_EQ(stalled->latest_next.load(), nullptr);
  EXPECT_TRUE(t.contains(5));
  EXPECT_EQ(t.predecessor(6), 5);
}

TEST(Helping, StalledPostActivationInsertIsCoveredByAnnouncement) {
  // Crash point: after activation (linearized!), before InsertBinaryTrie.
  // The trie bits never flip to 1, so only the permanent U-ALL
  // announcement can make predecessor queries see the key.
  LockFreeBinaryTrie t(64);
  ASSERT_TRUE(t.stall_insert_for_test(9));
  EXPECT_TRUE(t.contains(9));  // linearized
  TrieCore& core = t.core_for_test();
  EXPECT_FALSE(core.interpreted_bit(core.leaf(9)) &&
               core.interpreted_bit(core.leaf(9) >> 1) &&
               core.interpreted_bit(1));  // bits were never all raised
  EXPECT_EQ(t.predecessor(10), 9);  // via Iuall, not the trie traversal
  EXPECT_EQ(t.predecessor(64), 9);
  EXPECT_EQ(t.predecessor(9), kNoKey);
  // Later ops on the same key proceed normally.
  t.erase(9);
  EXPECT_FALSE(t.contains(9));
  EXPECT_EQ(t.predecessor(64), kNoKey);
}

TEST(Helping, EraseHelpsStalledPreActivationDelete) {
  LockFreeBinaryTrie t(64);
  t.insert(5);
  TrieCore& core = t.core_for_test();
  UpdateNode* i_node = core.find_latest(5);
  ASSERT_EQ(i_node->type, NodeType::kIns);
  auto* stalled = core.arena().create<DelNode>(5, core.b());
  stalled->latest_next.store(i_node);
  ASSERT_TRUE(core.cas_latest(5, i_node, stalled));
  EXPECT_TRUE(t.contains(5));  // not linearized yet
  // A racing erase must help the stalled delete linearize, then bail.
  t.erase(5);
  EXPECT_EQ(stalled->status.load(), UpdateNode::kActive);
  EXPECT_FALSE(t.contains(5));
}

TEST(Helping, BottomFallbackRecoversAcrossStalledDelete) {
  // The deterministic Definition 5.1 scenario. A delete of 5 linearizes
  // and crashes before DeleteBinaryTrie: the interpreted bits above leaf
  // 5 stay 1 with both children 0, so every relaxed traversal through
  // that subtree returns ⊥ forever, and the crashed DEL node sits in the
  // RU-ALL (-> Druall). Later inserts must reach queries through the
  // crashed delete's *embedded predecessor announcement* (its notify
  // list feeds L1, whose INS keys seed X, whose reachable sinks form R).
  LockFreeBinaryTrie t(64);
  t.insert(5);
  ASSERT_TRUE(t.stall_delete_for_test(5));
  ASSERT_FALSE(t.contains(5));  // the delete linearized before crashing

  TrieCore& core = t.core_for_test();
  EXPECT_TRUE(core.interpreted_bit(core.leaf(5) >> 1));  // stale 1
  EXPECT_FALSE(core.interpreted_bit(core.leaf(5)));

  // Empty set: queries forced through the fallback still answer -1.
  EXPECT_EQ(t.predecessor(6), kNoKey);
  EXPECT_EQ(t.predecessor(64), kNoKey);

  // A key outside the poisoned subtree resolves normally.
  t.insert(9);
  EXPECT_EQ(t.predecessor(64), 9);
  EXPECT_EQ(t.predecessor(9), kNoKey);
  EXPECT_EQ(t.predecessor(8), kNoKey);  // traversal hits ⊥ at 5's subtree

  // The crux: insert(2) completes and retracts its announcement, so a
  // later pred(8) can see 2 ONLY via the crashed delete's embedded
  // predecessor notify list (L1 -> X -> R). The paper's Lemma 5.22/5.26
  // machinery guarantees insert(2) notified that announcement.
  t.insert(2);
  EXPECT_EQ(t.predecessor(8), 2);
  EXPECT_EQ(t.predecessor(6), 2);
  EXPECT_EQ(t.predecessor(3), 2);
  EXPECT_EQ(t.predecessor(2), kNoKey);
  EXPECT_EQ(t.predecessor(64), 9);

  // Deleting 2 again must retract the candidate (the delete's own
  // notification carries threshold evidence).
  t.erase(2);
  EXPECT_EQ(t.predecessor(8), kNoKey);

  // New updates on key 5 supersede the crashed op and repair the bits.
  t.insert(5);
  EXPECT_TRUE(t.contains(5));
  EXPECT_EQ(t.predecessor(6), 5);
  EXPECT_EQ(t.predecessor(8), 5);
  t.erase(5);
  EXPECT_EQ(t.predecessor(8), kNoKey);
  testutil::quiescent_predecessor_exact(t, 64);
}

TEST(Helping, ChainedStalledDeletesFollowDelPred2Edges) {
  // Two crashed deletes whose delPred2 results chain: TL-graph walks
  // X -> sinks across multiple edges.
  LockFreeBinaryTrie t(64);
  t.insert(3);
  t.insert(12);
  t.insert(20);
  // Crash a delete of 20 (its delPred2, computed with {3,12} remaining
  // below, is 12), then of 12 (delPred2 = 3).
  ASSERT_TRUE(t.stall_delete_for_test(20));
  ASSERT_TRUE(t.stall_delete_for_test(12));
  EXPECT_FALSE(t.contains(20));
  EXPECT_FALSE(t.contains(12));
  EXPECT_TRUE(t.contains(3));
  // Queries above the poisoned subtrees must surface 3.
  EXPECT_EQ(t.predecessor(21), 3);
  EXPECT_EQ(t.predecessor(13), 3);
  EXPECT_EQ(t.predecessor(64), 3);
  EXPECT_EQ(t.predecessor(3), kNoKey);
  testutil::quiescent_predecessor_exact(t, 64);
}

TEST(Helping, StalledPostActivationInsertCoveredInSuccessorDirection) {
  // Mirror of StalledPostActivationInsertIsCoveredByAnnouncement: the
  // trie bits never rise, so successor queries from below can only see
  // the key through the permanent U-ALL/SU-ALL announcement.
  LockFreeBinaryTrie t(64);
  ASSERT_TRUE(t.stall_insert_for_test(9));
  EXPECT_TRUE(t.contains(9));  // linearized
  EXPECT_EQ(t.successor(0), 9);
  EXPECT_EQ(t.successor(-1), 9);
  EXPECT_EQ(t.successor(8), 9);
  EXPECT_EQ(t.successor(9), kNoKey);
  t.erase(9);
  EXPECT_FALSE(t.contains(9));
  EXPECT_EQ(t.successor(-1), kNoKey);
}

TEST(Helping, BottomFallbackRecoversInSuccessorDirection) {
  // The Definition 5.1 adversary scenario reflected through the key
  // order: a delete of 5 linearizes and crashes before DeleteBinaryTrie,
  // poisoning 5's subtree with a stale 1 whose children are both 0 —
  // every relaxed *successor* descent through it returns ⊥ forever, and
  // the crashed DEL node sits in the SU-ALL (-> the successor Dpos).
  // Queries must recover through the crashed delete's embedded
  // *successor* announcement (delSucc/delSucc2 and its notify list).
  LockFreeBinaryTrie t(64);
  t.insert(5);
  ASSERT_TRUE(t.stall_delete_for_test(5));
  ASSERT_FALSE(t.contains(5));  // the delete linearized before crashing

  TrieCore& core = t.core_for_test();
  EXPECT_TRUE(core.interpreted_bit(core.leaf(5) >> 1));  // stale 1
  EXPECT_FALSE(core.interpreted_bit(core.leaf(5)));

  // Empty set: queries forced through the fallback still answer -1.
  EXPECT_EQ(t.successor(4), kNoKey);
  EXPECT_EQ(t.successor(-1), kNoKey);

  // A key below the poisoned subtree resolves normally; queries at or
  // above it must pass *through* the stale subtree.
  t.insert(2);
  EXPECT_EQ(t.successor(-1), 2);
  EXPECT_EQ(t.successor(2), kNoKey);  // traversal hits ⊥ at 5's subtree
  EXPECT_EQ(t.successor(3), kNoKey);

  // The crux: insert(9) completes and retracts its announcement, so a
  // later succ(3) can see 9 ONLY via the crashed delete's embedded
  // successor notify list (L1 -> X -> R, edges walking up-key).
  t.insert(9);
  EXPECT_EQ(t.successor(3), 9);
  EXPECT_EQ(t.successor(4), 9);
  EXPECT_EQ(t.successor(2), 9);
  EXPECT_EQ(t.successor(8), 9);
  EXPECT_EQ(t.successor(9), kNoKey);

  // Deleting 9 again must retract the candidate.
  t.erase(9);
  EXPECT_EQ(t.successor(3), kNoKey);

  // New updates on key 5 supersede the crashed op and repair the bits.
  t.insert(5);
  EXPECT_TRUE(t.contains(5));
  EXPECT_EQ(t.successor(4), 5);
  EXPECT_EQ(t.successor(2), 5);
  t.erase(5);
  EXPECT_EQ(t.successor(2), kNoKey);
  testutil::quiescent_predecessor_exact(t, 64);
}

TEST(Helping, ChainedStalledDeletesFollowDelSucc2Edges) {
  // Mirror of ChainedStalledDeletesFollowDelPred2Edges: two crashed
  // deletes whose delSucc2 results chain up-key.
  LockFreeBinaryTrie t(64);
  t.insert(3);
  t.insert(12);
  t.insert(20);
  // Crash a delete of 3 (its delSucc2, computed with {12,20} remaining
  // above, is 12), then of 12 (delSucc2 = 20).
  ASSERT_TRUE(t.stall_delete_for_test(3));
  ASSERT_TRUE(t.stall_delete_for_test(12));
  EXPECT_FALSE(t.contains(3));
  EXPECT_FALSE(t.contains(12));
  EXPECT_TRUE(t.contains(20));
  // Queries below the poisoned subtrees must surface 20.
  EXPECT_EQ(t.successor(-1), 20);
  EXPECT_EQ(t.successor(2), 20);
  EXPECT_EQ(t.successor(11), 20);
  EXPECT_EQ(t.successor(20), kNoKey);
}

TEST(Helping, ManyStalledOpsDoNotWedgeTheStructure) {
  LockFreeBinaryTrie t(256);
  // Crash an insert on every 16th key and a delete on every 32nd.
  for (Key k = 0; k < 256; k += 16) {
    ASSERT_TRUE(t.stall_insert_for_test(k));
  }
  for (Key k = 0; k < 256; k += 32) {
    ASSERT_TRUE(t.stall_delete_for_test(k));
  }
  // Regular traffic proceeds, and quiescent queries are exact against
  // the crashed ops' linearized effects.
  std::set<Key> ref;
  for (Key k = 0; k < 256; k += 16) ref.insert(k);
  for (Key k = 0; k < 256; k += 32) ref.erase(k);
  for (Key k = 0; k < 256; ++k) {
    ASSERT_EQ(t.contains(k), ref.count(k) > 0) << k;
  }
  for (Key y = 0; y <= 256; ++y) {
    ASSERT_EQ(t.predecessor(y), testutil::ref_predecessor(ref, y)) << y;
  }
  for (Key y = -1; y < 256; ++y) {
    auto it = ref.upper_bound(y);
    ASSERT_EQ(t.successor(y), it == ref.end() ? kNoKey : *it) << y;
  }
}

}  // namespace
}  // namespace lfbt
