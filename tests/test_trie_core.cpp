// White-box tests of TrieCore: index arithmetic, null initial dummies,
// latest-list helpers, interpreted-bit transitions, and the
// InsertBinaryTrie / DeleteBinaryTrie stop/boundary protocol.
#include "relaxed/trie_core.hpp"

#include <gtest/gtest.h>

#include "core/lockfree_trie.hpp"
#include "relaxed/relaxed_trie.hpp"
#include "stress_util.hpp"

namespace lfbt {
namespace {

class TrieCoreTest : public ::testing::Test {
 protected:
  NodeArena arena_;
};

TEST_F(TrieCoreTest, IndexArithmetic) {
  TrieCore core(16, arena_);  // b = 4
  EXPECT_EQ(core.b(), 4u);
  EXPECT_EQ(core.leaf_base(), 16u);
  EXPECT_EQ(core.leaf(0), 16u);
  EXPECT_EQ(core.leaf(15), 31u);
  EXPECT_EQ(TrieCore::parent(16), 8u);
  EXPECT_EQ(TrieCore::sibling(16), 17u);
  EXPECT_EQ(TrieCore::sibling(17), 16u);
  EXPECT_EQ(core.height(1), 4u);   // root
  EXPECT_EQ(core.height(2), 3u);
  EXPECT_EQ(core.height(16), 0u);  // leaf
  EXPECT_TRUE(core.is_leaf(16));
  EXPECT_FALSE(core.is_leaf(15));
}

TEST_F(TrieCoreTest, NonPowerOfTwoUniverseRoundsUp) {
  TrieCore core(100, arena_);
  EXPECT_EQ(core.b(), 7u);  // 2^7 = 128 >= 100
  EXPECT_EQ(core.leaf_base(), 128u);
}

TEST_F(TrieCoreTest, NullDummiesMakeAllBitsZeroInitially) {
  TrieCore core(64, arena_);
  for (uint64_t t = 1; t < 128; ++t) {
    EXPECT_FALSE(core.interpreted_bit(t)) << t;
  }
  EXPECT_EQ(core.read_latest(7), nullptr);
  EXPECT_EQ(arena_.bytes_reserved(), 0u);  // reads fabricate nothing
}

TEST_F(TrieCoreTest, MaterialisedLatestDummyIsInstalledOncePerKey) {
  TrieCore core(64, arena_);
  UpdateNode* a = core.find_latest_materialized(7);
  UpdateNode* b = core.find_latest_materialized(7);
  EXPECT_EQ(a, b);
  EXPECT_EQ(core.read_latest(7), a);
  EXPECT_EQ(a->key, 7);
  EXPECT_EQ(a->type, NodeType::kDel);
  EXPECT_EQ(a->status.load(), UpdateNode::kActive);
  EXPECT_TRUE(core.first_activated(a));
  EXPECT_FALSE(core.search(7));
}

TEST_F(TrieCoreTest, FindLatestSkipsInactiveHead) {
  TrieCore core(64, arena_);
  UpdateNode* dummy = core.find_latest_materialized(3);
  auto* inactive = arena_.create<UpdateNode>(3, NodeType::kIns);
  inactive->latest_next.store(dummy);
  ASSERT_TRUE(core.cas_latest(3, dummy, inactive));
  // Head is inactive: FindLatest must return the activated predecessor.
  // (first_activated is only specified for *activated* nodes — Lemma 5.7 —
  // so it is not queried on `inactive` here.)
  EXPECT_EQ(core.find_latest(3), dummy);
  EXPECT_TRUE(core.first_activated(dummy));
  // Activate: now the head is the first activated node.
  inactive->status.store(UpdateNode::kActive);
  EXPECT_EQ(core.find_latest(3), inactive);
  EXPECT_TRUE(core.first_activated(inactive));
  // latestNext cleared: list is length 1.
  inactive->latest_next.store(nullptr);
  EXPECT_EQ(core.find_latest(3), inactive);
}

TEST_F(TrieCoreTest, InsertBinaryTrieRaisesWholePath) {
  TrieCore core(16, arena_);
  UpdateNode* dummy = core.find_latest_materialized(5);
  auto* ins = arena_.create<UpdateNode>(5, NodeType::kIns);
  ins->status.store(UpdateNode::kActive);
  ASSERT_TRUE(core.cas_latest(5, dummy, ins));
  core.insert_binary_trie(ins);
  // Path from leaf 5 to root all 1.
  for (uint64_t t = core.leaf(5); t >= 1; t >>= 1) {
    EXPECT_TRUE(core.interpreted_bit(t)) << t;
  }
  // Unrelated subtrees stay 0.
  EXPECT_FALSE(core.interpreted_bit(3));  // right half of the trie
}

TEST_F(TrieCoreTest, DeleteBinaryTrieLowersUntilSiblingSet) {
  TrieCore core(16, arena_);
  auto add = [&](Key k) {
    auto* n = arena_.create<UpdateNode>(k, NodeType::kIns);
    n->status.store(UpdateNode::kActive);
    ASSERT_TRUE(core.cas_latest(k, core.read_latest(k), n));
    core.insert_binary_trie(n);
  };
  add(5);
  add(7);  // shares the depth-2 ancestor with 5
  auto del = [&](Key k) {
    auto* d = arena_.create<DelNode>(k, core.b());
    d->status.store(UpdateNode::kActive);
    d->latest_next.store(core.read_latest(k));
    ASSERT_TRUE(core.cas_latest(k, core.read_latest(k), d));
    core.delete_binary_trie(d);
  };
  del(5);
  // Leaf 5's path up to (excl.) the common ancestor with 7 is 0.
  EXPECT_FALSE(core.interpreted_bit(core.leaf(5)));
  EXPECT_FALSE(core.interpreted_bit(core.leaf(5) >> 1));
  // Common ancestor of 5 and 7 (depth 2 node covering 4..7) is still 1.
  EXPECT_TRUE(core.interpreted_bit(core.leaf(5) >> 2));
  EXPECT_TRUE(core.interpreted_bit(1));
  del(7);
  for (uint64_t t = 1; t < 32; ++t) {
    EXPECT_FALSE(core.interpreted_bit(t)) << t;
  }
}

TEST_F(TrieCoreTest, StopFlagHaltsDeleteBinaryTrie) {
  TrieCore core(16, arena_);
  auto* ins = arena_.create<UpdateNode>(5, NodeType::kIns);
  ins->status.store(UpdateNode::kActive);
  ASSERT_TRUE(core.cas_latest(5, core.read_latest(5), ins));
  core.insert_binary_trie(ins);
  auto* d = arena_.create<DelNode>(5, core.b());
  d->status.store(UpdateNode::kActive);
  d->latest_next.store(ins);
  ASSERT_TRUE(core.cas_latest(5, ins, d));
  d->stop.store(true);  // a concurrent Insert told us to stop (l.65/69)
  core.delete_binary_trie(d);
  // The leaf bit flipped (latest[5] is the DEL node) but no internal node
  // was claimed: upper0Boundary untouched.
  EXPECT_EQ(d->upper0.load(), 0u);
  EXPECT_FALSE(core.interpreted_bit(core.leaf(5)));
}

TEST_F(TrieCoreTest, MinWriteToLower1BoundaryRevivesBit) {
  // Simulates InsertBinaryTrie's l.46 helping path: a DEL node that
  // claimed internal nodes has its lower1Boundary min-written, which
  // flips those bits back to 1 without touching dNodePtr.
  TrieCore core(16, arena_);
  auto add_then_del = [&](Key k) -> DelNode* {
    auto* n = arena_.create<UpdateNode>(k, NodeType::kIns);
    n->status.store(UpdateNode::kActive);
    EXPECT_TRUE(core.cas_latest(k, core.read_latest(k), n));
    core.insert_binary_trie(n);
    auto* dd = arena_.create<DelNode>(k, core.b());
    dd->status.store(UpdateNode::kActive);
    dd->latest_next.store(n);
    EXPECT_TRUE(core.cas_latest(k, n, dd));
    core.delete_binary_trie(dd);
    return dd;
  };
  DelNode* d = add_then_del(5);
  EXPECT_FALSE(core.interpreted_bit(1));
  ASSERT_GE(d->upper0.load(), 1u);
  // Min-write height 1: every claimed node at height >= 1 reads 1 again.
  d->lower1.min_write(1, std::memory_order_seq_cst);
  EXPECT_TRUE(core.interpreted_bit(core.leaf(5) >> 1));
  EXPECT_TRUE(core.interpreted_bit(1));
  // The leaf still reads 0 (it depends on latest[5], a DEL node).
  EXPECT_FALSE(core.interpreted_bit(core.leaf(5)));
}

TEST_F(TrieCoreTest, RelaxedPredecessorOnCoreDirectly) {
  TrieCore core(16, arena_);
  auto add = [&](Key k) {
    auto* n = arena_.create<UpdateNode>(k, NodeType::kIns);
    n->status.store(UpdateNode::kActive);
    ASSERT_TRUE(core.cas_latest(k, core.read_latest(k), n));
    core.insert_binary_trie(n);
  };
  EXPECT_EQ(core.relaxed_predecessor(16), kNoKey);
  add(2);
  add(9);
  EXPECT_EQ(core.relaxed_predecessor(16), 9);
  EXPECT_EQ(core.relaxed_predecessor(9), 2);
  EXPECT_EQ(core.relaxed_predecessor(2), kNoKey);
  EXPECT_EQ(core.relaxed_successor(-1), 2);
  EXPECT_EQ(core.relaxed_successor(2), 9);
  EXPECT_EQ(core.relaxed_successor(9), kNoKey);
}

// Every read of a fresh trie sees only null words (the initial dummies)
// and must not fabricate nodes: the arena stays exactly as constructed.
template <class Trie>
void expect_reads_do_not_grow_arena() {
  constexpr Key kU = Key{1} << 12;
  Trie t(kU);
  const std::size_t before = t.memory_reserved();
  for (Key k = 0; k < kU; ++k) {
    EXPECT_FALSE(t.contains(k));
    EXPECT_EQ(t.predecessor(k + 1), kNoKey);
    EXPECT_EQ(t.successor(k - 1), kNoKey);
    t.erase(k);  // absent: returns at the not-present check
  }
  EXPECT_EQ(t.memory_reserved(), before);
}

TEST(NullDummies, ReadsDoNotGrowTheArenaLockFree) {
  expect_reads_do_not_grow_arena<LockFreeBinaryTrie>();
}

TEST(NullDummies, ReadsDoNotGrowTheArenaRelaxed) {
  expect_reads_do_not_grow_arena<RelaxedBinaryTrie>();
}

// First writes on null slots, raced. Keys 0..15 of a 64-key universe
// share the root and their ancestors; the even keys are inserted first,
// which writes no dNodePtr (only DeleteBinaryTrie does), so the race's
// deleters CAS dNodePtr words from null while inserters materialise latest
// dummies under the same ancestors. Each trie is fresh and is destroyed
// with the words of keys 16..63 still null.
template <class Trie>
void race_first_writes(uint64_t seed, int pred_weight, int succ_weight) {
  Trie trie(64);
  for (Key k = 0; k < 16; k += 2) trie.insert(k);
  testutil::StressSpec spec;
  spec.universe = 16;
  spec.threads = 4;
  spec.ops_per_round = 12;
  spec.rounds = 3;
  spec.pred_weight = pred_weight;
  spec.succ_weight = succ_weight;
  spec.contains_weight = 10;
  spec.seed = seed;
  testutil::linearizability_stress(trie, spec);  // Wing–Gong per round
  TrieCore& core = trie.core_for_test();
  for (uint64_t node = 1; node < core.leaf_base(); ++node) {  // IB0/IB1
    ASSERT_EQ(core.interpreted_bit(node), core.quiescent_bit_reference(node))
        << "seed " << seed << " node " << node;
  }
  EXPECT_EQ(core.read_latest(40), nullptr);
}

TEST(NullDummies, ConcurrentFirstWritesOnNullSlots) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    race_first_writes<LockFreeBinaryTrie>(seed, 20, 20);
    // The relaxed trie's predecessor is not linearizable (Section 4.1):
    // only its updates and contains enter the Wing–Gong history.
    race_first_writes<RelaxedBinaryTrie>(seed, 0, 0);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace lfbt
