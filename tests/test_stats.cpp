#include "sync/stats.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace lfbt {
namespace {

TEST(Stats, LocalCountersAccumulate) {
  if (!Stats::enabled()) GTEST_SKIP() << "built with TRIE_STATS=OFF";
  Stats::reset();
  StepCounts before = Stats::local();
  Stats::count_read(3);
  Stats::count_cas(true);
  Stats::count_cas(false);
  Stats::count_min_write();
  Stats::count_help();
  StepCounts delta = Stats::local() - before;
  EXPECT_EQ(delta.reads, 3u);
  EXPECT_EQ(delta.cas_attempts, 2u);
  EXPECT_EQ(delta.cas_successes, 1u);
  EXPECT_EQ(delta.min_writes, 1u);
  EXPECT_EQ(delta.helps, 1u);
}

TEST(Stats, QueryPathCountersAccumulate) {
  if (!Stats::enabled()) GTEST_SKIP() << "built with TRIE_STATS=OFF";
  Stats::reset();
  StepCounts before = Stats::local();
  Stats::count_query_helper(/*fused=*/false);
  Stats::count_query_helper(/*fused=*/true);
  Stats::count_query_helper(/*fused=*/true);
  Stats::count_query_node_alloc();
  StepCounts delta = Stats::local() - before;
  EXPECT_EQ(delta.query_helpers, 3u);
  EXPECT_EQ(delta.fused_queries, 2u);
  EXPECT_EQ(delta.query_node_allocs, 1u);
}

TEST(Stats, DisabledBuildReportsZeros) {
  // In a TRIE_STATS=OFF build every counter must read zero even after
  // counting calls (which compile to nothing); in an ON build this just
  // checks reset(). Keeps both configurations honest with one test.
  Stats::reset();
  Stats::count_read(5);
  Stats::count_query_helper(true);
  if (!Stats::enabled()) {
    EXPECT_EQ(Stats::aggregate().reads, 0u);
    EXPECT_EQ(Stats::aggregate().query_helpers, 0u);
    EXPECT_EQ(Stats::local().total(), 0u);
  } else {
    EXPECT_EQ(Stats::aggregate().reads, 5u);
  }
  Stats::reset();
}

TEST(Stats, AggregateSumsAcrossThreads) {
  if (!Stats::enabled()) GTEST_SKIP() << "built with TRIE_STATS=OFF";
  Stats::reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) Stats::count_read();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_GE(Stats::aggregate().reads,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Stats, ArithmeticOperators) {
  // Positional initialisation pins the field order; a new counter must be
  // added here too, or this assertion fails.
  static_assert(sizeof(StepCounts) == 17 * sizeof(uint64_t));
  const StepCounts a{10, 20, 30, 40, 50, 60, 70, 80, 90,
                     100, 110, 120, 130, 140, 150, 160, 170};
  const StepCounts b{1, 2, 3, 4, 5, 6, 7, 8, 9,
                     10, 11, 12, 13, 14, 15, 16, 17};
  const auto expect_each = [](const StepCounts& c, uint64_t scale) {
    EXPECT_EQ(c.reads, 1 * scale);
    EXPECT_EQ(c.cas_attempts, 2 * scale);
    EXPECT_EQ(c.cas_successes, 3 * scale);
    EXPECT_EQ(c.min_writes, 4 * scale);
    EXPECT_EQ(c.helps, 5 * scale);
    EXPECT_EQ(c.trie_restarts, 6 * scale);
    EXPECT_EQ(c.scan_ops, 7 * scale);
    EXPECT_EQ(c.scan_keys, 8 * scale);
    EXPECT_EQ(c.atomic_scans, 9 * scale);
    EXPECT_EQ(c.scan_retries, 10 * scale);
    EXPECT_EQ(c.scan_fallbacks, 11 * scale);
    EXPECT_EQ(c.query_helpers, 12 * scale);
    EXPECT_EQ(c.fused_queries, 13 * scale);
    EXPECT_EQ(c.query_node_allocs, 14 * scale);
    EXPECT_EQ(c.batch_flushes, 15 * scale);
    EXPECT_EQ(c.batch_ops, 16 * scale);
    EXPECT_EQ(c.batch_coalesced, 17 * scale);
  };
  StepCounts d = a - b;
  expect_each(d, 9);
  d += b;
  expect_each(d, 10);
  d += a;
  expect_each(d, 20);
  EXPECT_EQ(a.total(), 10u + 20u + 40u);
}

TEST(Stats, ResetZeroesEverything) {
  Stats::count_read(100);
  Stats::reset();
  StepCounts agg = Stats::aggregate();
  EXPECT_EQ(agg.reads, 0u);
  EXPECT_EQ(agg.cas_attempts, 0u);
}

}  // namespace
}  // namespace lfbt
