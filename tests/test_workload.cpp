#include "workload/workload.hpp"

#include <gtest/gtest.h>

#include <map>

#include "baselines/cow_universal.hpp"
#include "baselines/harris_set.hpp"
#include "baselines/lf_skiplist.hpp"
#include "baselines/locked_trie.hpp"
#include "baselines/versioned_trie.hpp"
#include "core/lockfree_trie.hpp"
#include "relaxed/relaxed_trie.hpp"
#include "shard/sharded_trie.hpp"
#include "workload/harness.hpp"
#include "ebr_test_util.hpp"

namespace lfbt {
namespace {

TEST(Workload, MixProportionsRespected) {
  UniformDist dist(1000);
  OpStream stream(OpMix{10, 20, 30, 40}, dist, 99);
  std::map<OpKind, int> counts;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[stream.next().kind];
  EXPECT_NEAR(counts[OpKind::kInsert], kN / 10, kN / 100);
  EXPECT_NEAR(counts[OpKind::kErase], kN / 5, kN / 100);
  EXPECT_NEAR(counts[OpKind::kContains], kN * 3 / 10, kN / 100);
  EXPECT_NEAR(counts[OpKind::kPredecessor], kN * 2 / 5, kN / 100);
}

TEST(Workload, TraversalMixProportionsRespected) {
  UniformDist dist(1000);
  OpStream stream(OpMix{10, 10, 10, 10, 30, 30}, dist, 99);
  std::map<OpKind, int> counts;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[stream.next().kind];
  EXPECT_NEAR(counts[OpKind::kInsert], kN / 10, kN / 100);
  EXPECT_NEAR(counts[OpKind::kSuccessor], kN * 3 / 10, kN / 100);
  EXPECT_NEAR(counts[OpKind::kRangeScan], kN * 3 / 10, kN / 100);
}

TEST(Workload, RangeScanOpsAreWellFormed) {
  UniformDist dist(1000);
  OpStream stream(kScanHeavy, dist, 7, /*scan_span=*/32, /*scan_limit=*/8);
  int scans = 0;
  for (int i = 0; i < 20000; ++i) {
    Op op = stream.next();
    if (op.kind != OpKind::kRangeScan) continue;
    ++scans;
    ASSERT_GE(op.key, 0);
    ASSERT_LT(op.key, 1000);
    ASSERT_GE(op.hi, op.key);          // window never inverted
    ASSERT_LT(op.hi, 1000);            // clamped to the universe
    ASSERT_LE(op.hi - op.key + 1, 32); // at most the configured span
    ASSERT_EQ(op.limit, 8u);
  }
  EXPECT_GT(scans, 10000);  // 80% of the mix
}

TEST(Workload, StreamsAreDeterministic) {
  UniformDist d1(1000), d2(1000);
  OpStream a(kBalanced, d1, 7), b(kBalanced, d2, 7);
  for (int i = 0; i < 1000; ++i) {
    Op oa = a.next(), ob = b.next();
    ASSERT_EQ(oa.kind, ob.kind);
    ASSERT_EQ(oa.key, ob.key);
  }
}

TEST(Workload, MixNameIsDescriptive) {
  // Pre-traversal mixes keep their historical names (and JSON keys).
  EXPECT_EQ(kUpdateHeavy.name(), "i50/d50/s0/p0");
  EXPECT_EQ(kPredHeavy.name(), "i20/d20/s0/p60");
  // Traversal fields appear only when nonzero.
  EXPECT_EQ(kSuccHeavy.name(), "i20/d20/s0/p0/S60");
  EXPECT_EQ(kScanHeavy.name(), "i10/d10/s0/p0/r80");
  EXPECT_EQ(kTraversalMix.name(), "i15/d15/s10/p20/S20/r20");
}

TEST(Harness, RunsFixedOpCountAndReportsThroughput) {
  BenchConfig cfg;
  cfg.threads = 2;
  cfg.ops_per_thread = 5000;
  cfg.universe = 1 << 10;
  cfg.mix = kBalanced;
  auto res = bench_fresh<CoarseLockTrie>(cfg);
  EXPECT_EQ(res.total_ops, 10000u);
  EXPECT_GT(res.mops_per_sec, 0.0);
  EXPECT_GT(res.elapsed_sec, 0.0);
}

TEST(Harness, LatencySamplingProducesSortedSamples) {
  BenchConfig cfg;
  cfg.threads = 1;
  cfg.ops_per_thread = 4096;
  cfg.universe = 1 << 10;
  cfg.sample_latency = true;
  cfg.latency_sample_every = 16;
  auto res = bench_fresh<CoarseLockTrie>(cfg);
  ASSERT_FALSE(res.latencies_ns.empty());
  EXPECT_TRUE(std::is_sorted(res.latencies_ns.begin(), res.latencies_ns.end()));
  EXPECT_LE(res.latency_pct(0.5), res.latency_pct(0.99));
}

TEST(Harness, TraversalMixRunsAndCountsScans) {
  if (!Stats::enabled()) GTEST_SKIP() << "built with TRIE_STATS=OFF";
  // A traversal-heavy run on the sharded trie: completes, reports
  // throughput, and the scan step counters (wired through apply_op into
  // StepCounts) record every executed scan.
  BenchConfig cfg;
  cfg.threads = 2;
  cfg.ops_per_thread = 4000;
  cfg.universe = 1 << 12;
  cfg.mix = kTraversalMix;
  cfg.scan_span = 32;
  cfg.scan_limit = 32;
  Stats::reset();
  auto res = bench_fresh<ShardedTrie>(cfg);
  EXPECT_EQ(res.total_ops, 8000u);
  EXPECT_GT(res.mops_per_sec, 0.0);
  // ~20% of 8000 ops are scans; allow wide slack for RNG variance.
  EXPECT_GT(res.steps.scan_ops, 1000u);
  EXPECT_LT(res.steps.scan_ops, 2400u);
  EXPECT_GE(res.steps.scan_keys, res.steps.scan_ops / 2);  // dense prefill

  // The same mix drives the paper's trie directly (native successor).
  Stats::reset();
  auto res2 = bench_fresh<LockFreeBinaryTrie>(cfg);
  EXPECT_EQ(res2.total_ops, 8000u);
  EXPECT_GT(res2.steps.scan_ops, 1000u);
}

template <TraversableOrderedSet Set>
void traversal_mix_smoke() {
  BenchConfig cfg;
  // Single-threaded: SeqBinaryTrie is in the sweep and is not a
  // concurrent structure (multi-thread traversal coverage lives in
  // TraversalMixRunsAndCountsScans and the E10 bench).
  cfg.threads = 1;
  cfg.ops_per_thread = 1000;
  cfg.universe = 1 << 8;
  cfg.mix = kTraversalMix;
  cfg.scan_span = 16;
  cfg.scan_limit = 16;
  Stats::reset();
  auto res = bench_fresh<Set>(cfg);
  EXPECT_EQ(res.total_ops, 1000u);
  if (Stats::enabled()) {
    EXPECT_GT(res.steps.scan_ops, 0u);
  }
}

TEST(Harness, TraversalMixAcrossEveryTraversableStructure) {
  // The acceptance bar for the query subsystem: the workload harness
  // exercises successor AND range_scan against every traversable
  // structure (the paper's trie with its native successor first). Tiny op
  // counts — this is a does-it-run-everywhere gate, not a benchmark.
  traversal_mix_smoke<LockFreeBinaryTrie>();
  traversal_mix_smoke<ShardedTrie>();
  traversal_mix_smoke<RelaxedBinaryTrie>();
  traversal_mix_smoke<SeqBinaryTrie>();
  traversal_mix_smoke<LockFreeSkipList>();
  traversal_mix_smoke<HarrisSet>();
  traversal_mix_smoke<CowUniversalSet>();
  traversal_mix_smoke<VersionedTrie>();
  traversal_mix_smoke<CoarseLockTrie>();
  traversal_mix_smoke<RwLockTrie>();
}

TEST(Harness, PrefillRespectsExplicitCount) {
  BenchConfig cfg;
  cfg.universe = 1 << 12;
  cfg.prefill_keys = 100;
  CoarseLockTrie set(cfg.universe);
  prefill(set, cfg);
  // At most 100 (duplicates collapse), definitely nonzero.
  int count = 0;
  for (Key k = 0; k < cfg.universe; ++k) count += set.contains(k);
  EXPECT_GT(count, 0);
  EXPECT_LE(count, 100);
}

}  // namespace
}  // namespace lfbt
