// Parameterized property sweeps of the lock-free trie: every combination
// of (threads, universe, workload shape) must preserve the structural
// invariants — quiescent exactness, interpreted-bit consistency, and
// bounded arena growth.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/lockfree_trie.hpp"
#include "set_test_util.hpp"

namespace lfbt {
namespace {

struct SweepParam {
  int threads;
  Key universe;
  int pred_pct;  // remainder split between insert/erase
  uint64_t seed;
};

class TrieSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TrieSweep, InvariantsHoldAfterConcurrentPhase) {
  const SweepParam p = GetParam();
  LockFreeBinaryTrie trie(p.universe);
  std::atomic<bool> bad{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < p.threads; ++t) {
    ts.emplace_back([&, t] {
      Xoshiro256 rng(p.seed + static_cast<uint64_t>(t));
      for (int i = 0; i < 8000 && !bad.load(); ++i) {
        Key k = static_cast<Key>(rng.bounded(static_cast<uint64_t>(p.universe)));
        if (static_cast<int>(rng.bounded(100)) < p.pred_pct) {
          Key got = trie.predecessor(k + 1);
          if (got < kNoKey || got > k) bad = true;
        } else if (rng.bounded(2)) {
          trie.insert(k);
        } else {
          trie.erase(k);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  ASSERT_FALSE(bad.load());

  // Quiescent: predecessor exact everywhere.
  testutil::quiescent_predecessor_exact(trie, p.universe);

  // Quiescent: interpreted bits equal the OR of their leaves (IB0/IB1).
  TrieCore& core = trie.core_for_test();
  if (p.universe <= 64) {
    for (uint64_t node = 1; node < core.leaf_base(); ++node) {
      ASSERT_EQ(core.interpreted_bit(node), core.quiescent_bit_reference(node))
          << "node " << node;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TrieSweep,
    ::testing::Values(SweepParam{2, 8, 25, 1000}, SweepParam{4, 8, 25, 1001},
                      SweepParam{8, 8, 25, 1002}, SweepParam{4, 64, 0, 1003},
                      SweepParam{4, 64, 50, 1004}, SweepParam{4, 64, 90, 1005},
                      SweepParam{8, 1024, 30, 1006},
                      SweepParam{2, 1 << 14, 30, 1007},
                      SweepParam{12, 4, 40, 1008}),
    [](const auto& info) {
      // Appended piecewise: `"t" + std::to_string(...)` inlines
      // basic_string::insert into a known g++ 12 -Wrestrict false
      // positive (GCC bug 105329).
      std::string name = "t";
      name += std::to_string(info.param.threads);
      name += "_u";
      name += std::to_string(info.param.universe);
      name += "_p";
      name += std::to_string(info.param.pred_pct);
      return name;
    });

TEST(TrieArenaGrowth, BoundedPerOperation) {
  // Space claim sanity: arena growth is O(ops) with a modest constant
  // (update nodes + announcement cells + embedded predecessor nodes),
  // independent of the universe size.
  LockFreeBinaryTrie trie(Key{1} << 20);
  Xoshiro256 rng(9);
  constexpr int kOps = 20000;
  for (int i = 0; i < kOps; ++i) {
    Key k = static_cast<Key>(rng.bounded(uint64_t{1} << 20));
    if (rng.bounded(2)) {
      trie.insert(k);
    } else {
      trie.erase(k);
    }
  }
  // Generous ceiling: < 4 KiB per op on average (deletes allocate two
  // predecessor announcements plus notify nodes).
  EXPECT_LT(trie.memory_reserved(), static_cast<std::size_t>(kOps) * 4096);
}

TEST(TrieManyInstances, IndependentTriesDoNotInterfere) {
  // Static per-thread arena cursors must not leak state across instances.
  for (int round = 0; round < 5; ++round) {
    LockFreeBinaryTrie a(256), b(256);
    std::thread ta([&] {
      for (Key k = 0; k < 256; k += 2) a.insert(k);
    });
    std::thread tb([&] {
      for (Key k = 1; k < 256; k += 2) b.insert(k);
    });
    ta.join();
    tb.join();
    for (Key k = 0; k < 256; ++k) {
      ASSERT_EQ(a.contains(k), k % 2 == 0);
      ASSERT_EQ(b.contains(k), k % 2 == 1);
    }
    ASSERT_EQ(a.predecessor(256), 254);
    ASSERT_EQ(b.predecessor(256), 255);
  }
}

}  // namespace
}  // namespace lfbt
