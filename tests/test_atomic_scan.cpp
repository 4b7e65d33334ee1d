// Scan-torture layer for the atomic multi-key read surface:
// epoch-validated scans (flat trie + ShardedTrie) and SnapshotView
// read-transactions. Covers: quiet-window atomicity, seeded mid-scan
// interference (deterministic retry and forced-fallback paths, with the
// Stats retry counters), Wing–Gong stress with whole-scan events under
// churn (including a split/merge churner in flight), the single-writer
// oracle on scan windows, fault injection against a frozen splitter,
// SnapshotView frozen-state semantics, the type-erased facade's
// validated-scan surface, and the scan counters of the structures that
// are atomic by construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/cow_universal.hpp"
#include "baselines/locked_map.hpp"
#include "baselines/seq_binary_trie.hpp"
#include "baselines/versioned_trie.hpp"
#include "core/lockfree_trie.hpp"
#include "ebr_test_util.hpp"
#include "query/range_scan.hpp"
#include "set_test_util.hpp"
#include "shard/ordered_set.hpp"
#include "shard/sharded_trie.hpp"
#include "stress_util.hpp"
#include "verify/oracle.hpp"

namespace lfbt {
namespace {

std::vector<Key> ref_window(const std::set<Key>& s, Key lo, Key hi,
                            std::size_t limit = kNoScanLimit) {
  std::vector<Key> out;
  for (auto it = s.lower_bound(lo); it != s.end() && *it <= hi; ++it) {
    if (out.size() >= limit) break;
    out.push_back(*it);
  }
  return out;
}

// ---- Quiet-window atomicity ------------------------------------------------

TEST(AtomicScan, FlatQuietScanValidatesFirstTry) {
  LockFreeBinaryTrie t(256);
  std::set<Key> ref;
  for (Key k = 3; k < 256; k += 7) {
    t.insert(k);
    ref.insert(k);
  }
  std::vector<Key> out;
  const ScanResult r = t.range_scan_validated(10, 200, kNoScanLimit, out);
  EXPECT_TRUE(r.atomic);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(out, ref_window(ref, 10, 200));
  // Limit semantics survive the validated path.
  out.clear();
  const ScanResult rl = t.range_scan_validated(0, 255, 5, out);
  EXPECT_TRUE(rl.atomic);
  EXPECT_EQ(rl.n, 5u);
  EXPECT_EQ(out, ref_window(ref, 0, 255, 5));
}

TEST(AtomicScan, ShardedQuietScanValidatesAcrossRanges) {
  ShardedTrie t(256, 4);
  std::set<Key> ref;
  for (Key k = 1; k < 256; k += 5) {
    t.insert(k);
    ref.insert(k);
  }
  ASSERT_TRUE(t.split(2));  // non-uniform geometry under the window
  std::vector<Key> out;
  const ScanResult r = t.range_scan_validated(0, 255, kNoScanLimit, out);
  EXPECT_TRUE(r.atomic);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(out, ref_window(ref, 0, 255));
  out.clear();
  const ScanResult rl = t.range_scan_validated(40, 220, 7, out);
  EXPECT_TRUE(rl.atomic);
  EXPECT_EQ(out, ref_window(ref, 40, 220, 7));
}

// ---- Seeded interference: deterministic retry and fallback ----------------

// Successor adapter that fires a mutation on the underlying trie after a
// fixed number of successor steps — a deterministic mid-scan update. The
// epoch hook sees the real trie epoch, so the validated scan MUST detect
// the interference, discard the walk and retry.
struct InterferingSet {
  LockFreeBinaryTrie& t;
  int fire_after;
  Key mutate_key;
  bool insert_side;
  int calls = 0;
  Key successor(Key y) {
    if (calls++ == fire_after) {
      if (insert_side) {
        t.insert(mutate_key);
      } else {
        t.erase(mutate_key);
      }
    }
    return t.successor(y);
  }
};

TEST(AtomicScan, SeededInsertBehindCursorForcesRetry) {
  LockFreeBinaryTrie t(64);
  for (Key k : {10, 20, 30, 40}) t.insert(k);
  // The insert fires after the scan's cursor has passed key 5 — a
  // per-step walk would silently omit it; the validated walk retries
  // and reports the post-insert state atomically.
  InterferingSet s{t, /*fire_after=*/2, /*mutate_key=*/5,
                   /*insert_side=*/true};
  const StepCounts before = Stats::enabled() ? Stats::local() : StepCounts{};
  std::vector<Key> out;
  const ScanResult r = epoch_validated_scan(
      s, [&] { return t.update_epoch(); }, 0, 63, kNoScanLimit, out);
  EXPECT_TRUE(r.atomic);
  EXPECT_EQ(r.retries, 1u);
  EXPECT_EQ(out, (std::vector<Key>{5, 10, 20, 30, 40}));
  if (Stats::enabled()) {
    const StepCounts d = Stats::local() - before;
    EXPECT_EQ(d.scan_retries, 1u);
    EXPECT_EQ(d.atomic_scans, 1u);
    EXPECT_EQ(d.scan_fallbacks, 0u);
  }
}

TEST(AtomicScan, SeededEraseBehindCursorForcesRetry) {
  LockFreeBinaryTrie t(64);
  for (Key k : {10, 20, 30, 40}) t.insert(k);
  // The erase removes an ALREADY-REPORTED key: this is exactly the case
  // an insert-only epoch would miss (the scan claims 10 in a state that
  // no longer has it) — both directions must invalidate.
  InterferingSet s{t, /*fire_after=*/2, /*mutate_key=*/10,
                   /*insert_side=*/false};
  std::vector<Key> out;
  const ScanResult r = epoch_validated_scan(
      s, [&] { return t.update_epoch(); }, 0, 63, kNoScanLimit, out);
  EXPECT_TRUE(r.atomic);
  EXPECT_EQ(r.retries, 1u);
  EXPECT_EQ(out, (std::vector<Key>{20, 30, 40}));
}

// Fires a mutation on EVERY walk (outside the scanned window, so the
// kept per-step walk still has a deterministic report): the scan can
// never validate and must fall back after max_retries.
struct AlwaysInterferingSet {
  LockFreeBinaryTrie& t;
  Key toggle_key;  // outside the scanned window
  bool present = false;
  Key successor(Key y) {
    if (y < 0) {  // first step of each walk
      if (present) {
        t.erase(toggle_key);
      } else {
        t.insert(toggle_key);
      }
      present = !present;
    }
    return t.successor(y);
  }
};

TEST(AtomicScan, PersistentInterferenceFallsBackHonestly) {
  LockFreeBinaryTrie t(128);
  for (Key k : {10, 20, 30}) t.insert(k);
  AlwaysInterferingSet s{t, /*toggle_key=*/100};
  const StepCounts before = Stats::enabled() ? Stats::local() : StepCounts{};
  std::vector<Key> out;
  const ScanResult r = epoch_validated_scan(
      s, [&] { return t.update_epoch(); }, 0, 63, kNoScanLimit, out,
      /*max_retries=*/2);
  EXPECT_FALSE(r.atomic);
  EXPECT_EQ(r.retries, 2u);
  // The kept walk is still per-step exact here (the toggled key is
  // outside the window) and earlier discarded walks left no residue.
  EXPECT_EQ(out, (std::vector<Key>{10, 20, 30}));
  if (Stats::enabled()) {
    const StepCounts d = Stats::local() - before;
    EXPECT_EQ(d.scan_retries, 2u);
    EXPECT_EQ(d.scan_fallbacks, 1u);
    EXPECT_EQ(d.atomic_scans, 0u);
  }
}

TEST(AtomicScan, ZeroRetriesMeansImmediateFallback) {
  LockFreeBinaryTrie t(128);
  for (Key k : {10, 20, 30}) t.insert(k);
  AlwaysInterferingSet s{t, /*toggle_key=*/100};
  std::vector<Key> out;
  const ScanResult r = epoch_validated_scan(
      s, [&] { return t.update_epoch(); }, 0, 63, kNoScanLimit, out,
      /*max_retries=*/0);
  EXPECT_FALSE(r.atomic);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(out, (std::vector<Key>{10, 20, 30}));
}

// ---- Wing–Gong with whole-scan events under churn -------------------------

TEST(AtomicScan, WingGongFlatTrieWithScanEvents) {
  LockFreeBinaryTrie t(24);
  testutil::StressSpec spec;
  spec.universe = 24;
  spec.threads = 4;
  spec.ops_per_round = 10;
  spec.rounds = 50;
  spec.pred_weight = 10;
  spec.succ_weight = 10;
  spec.scan_weight = 30;
  spec.contains_weight = 10;
  spec.scan_span = 8;
  spec.seed = 17;
  testutil::linearizability_stress(t, spec);
}

TEST(AtomicScan, WingGongShardedWithScansAndReshardChurn) {
  // Whole-scan events checked while a background churner splits and
  // re-merges the first range the entire time: scans must stay atomic
  // (or honestly drop out) across migrations, which bump no epochs.
  ShardedTrie t(16, 2);
  testutil::StressSpec spec;
  spec.universe = 16;
  spec.threads = 4;
  spec.ops_per_round = 10;
  spec.rounds = 40;
  spec.pred_weight = 10;
  spec.succ_weight = 10;
  spec.scan_weight = 30;
  spec.contains_weight = 10;
  spec.scan_span = 8;
  spec.seed = 23;
  std::atomic<uint64_t> churns{0};
  testutil::linearizability_stress(t, spec, [&](std::atomic<bool>& stop) {
    while (!stop.load()) {
      if (t.split(0)) churns.fetch_add(1);
      if (t.merge(0)) churns.fetch_add(1);
    }
  });
  EXPECT_GT(churns.load(), 0u) << "churner never completed a reshard";
}

// ---- Single-writer oracle over scan windows -------------------------------

TEST(AtomicScan, SingleWriterOracleAdmitsShardedScans) {
  ShardedTrie t(48, 3);
  SingleWriterOracle oracle;
  HistoryClock clock;
  constexpr int kReaders = 3;
  std::vector<std::vector<SingleWriterOracle::Query>> logs(kReaders);
  std::vector<uint64_t> dropped(kReaders, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(301 + static_cast<uint64_t>(r));
      // Fixed query count so readers overlap the writer AND outlive it
      // (post-quiescence scans must validate against the final state).
      for (int i = 0; i < 600; ++i) {
        const Key lo = static_cast<Key>(rng.bounded(48));
        const Key hi = std::min<Key>(lo + 1 + static_cast<Key>(rng.bounded(12)), 47);
        const std::size_t limit = rng.bounded(2) != 0 ? 48 : 4;
        if (!SingleWriterOracle::reader_scan_query(t, lo, hi, limit, clock,
                                                   logs[r])) {
          ++dropped[r];
        }
      }
    });
  }
  Xoshiro256 rng(300);
  for (int i = 0; i < 1500; ++i) {
    const Key k = static_cast<Key>(rng.bounded(48));
    oracle.writer_apply(t, rng.bounded(2) ? OpKind::kInsert : OpKind::kErase,
                        k, clock);
  }
  for (auto& th : readers) th.join();
  for (int r = 0; r < kReaders; ++r) {
    ASSERT_EQ(oracle.validate(logs[r]), -1) << "reader " << r;
    EXPECT_GT(logs[r].size(), 0u) << "every scan fell back; no coverage";
  }
}

// ---- Fault injection: scans against a frozen splitter ---------------------

TEST(AtomicScan, ScanDuringFrozenSplitIsAtomicAndExact) {
  // Freeze a split mid-migration (watermark inside the moved range) and
  // scan across the half-migrated boundary. No client update runs, and
  // migration moves bump no epochs, so the scan must validate on the
  // first walk AND report the exact union — a key mid-move may briefly
  // be in both tries, and the cursor-advance dedup must show it once.
  ShardedTrie t(512, 2);
  std::set<Key> ref;
  for (Key k = 0; k < 512; k += 2) {
    t.insert(k);
    ref.insert(k);
  }
  std::atomic<bool> frozen{false};
  std::atomic<bool> release{false};
  std::thread splitter([&] {
    const bool ok = t.split(1, [&](Key wm) {
      if (wm > 384) {  // at least one batch already moved
        frozen.store(true);
        while (!release.load()) std::this_thread::yield();
      }
      return true;
    });
    EXPECT_TRUE(ok);
  });
  while (!frozen.load()) std::this_thread::yield();
  ASSERT_TRUE(t.resharding_in_flight());
  std::vector<Key> out;
  const ScanResult r = t.range_scan_validated(300, 511, kNoScanLimit, out);
  EXPECT_TRUE(r.atomic);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(out, ref_window(ref, 300, 511));
  for (std::size_t i = 1; i < out.size(); ++i) {
    ASSERT_LT(out[i - 1], out[i]) << "duplicate or out-of-order key";
  }
  release.store(true);
  splitter.join();
  out.clear();
  const ScanResult r2 = t.range_scan_validated(0, 511, kNoScanLimit, out);
  EXPECT_TRUE(r2.atomic);
  EXPECT_EQ(out, ref_window(ref, 0, 511));
}

TEST(AtomicScan, ScanConcurrentWithSplitterAndWritersStaysSound) {
  // Full torture: a crawling splitter/merger plus client writers, while
  // a scanner hammers validated scans. Every atomic report must be a
  // sorted duplicate-free subset of [lo, hi] — and by the oracle test
  // above a single state; here we additionally check the structural
  // invariants hold for non-atomic fallbacks too.
  ShardedTrie t(256, 2);
  for (Key k = 0; k < 256; k += 3) t.insert(k);
  std::atomic<bool> stop{false};
  std::thread churner([&] {
    while (!stop.load()) {
      t.split(0, [&](Key) {
        std::this_thread::yield();
        return true;
      });
      t.merge(0, [&](Key) {
        std::this_thread::yield();
        return true;
      });
    }
  });
  std::thread writer([&] {
    Xoshiro256 rng(99);
    while (!stop.load()) {
      const Key k = static_cast<Key>(rng.bounded(256));
      if (rng.bounded(2)) {
        t.insert(k);
      } else {
        t.erase(k);
      }
    }
  });
  Xoshiro256 rng(98);
  uint64_t atomic_seen = 0;
  for (int i = 0; i < 2000; ++i) {
    const Key lo = static_cast<Key>(rng.bounded(200));
    const Key hi = lo + static_cast<Key>(rng.bounded(56));
    std::vector<Key> out;
    const ScanResult r = t.range_scan_validated(lo, hi, kNoScanLimit, out);
    ASSERT_EQ(out.size(), r.n);
    for (std::size_t j = 0; j < out.size(); ++j) {
      ASSERT_GE(out[j], lo);
      ASSERT_LE(out[j], hi);
      if (j > 0) {
        ASSERT_LT(out[j - 1], out[j]) << "dup/unsorted in scan";
      }
    }
    if (r.atomic) ++atomic_seen;
  }
  stop.store(true);
  churner.join();
  writer.join();
  EXPECT_GT(atomic_seen, 0u) << "no scan ever validated under churn";
}

// ---- SnapshotView read-transactions ---------------------------------------

TEST(AtomicScan, SnapshotViewFreezesTheAcquiredState) {
  VersionedTrie t(128);
  std::set<Key> ref;
  for (Key k = 2; k < 128; k += 3) {
    t.insert(k);
    ref.insert(k);
  }
  SnapshotView v = t.snapshot();
  ASSERT_TRUE(v.valid());
  // Mutate the live structure heavily; the view must not move.
  for (Key k = 0; k < 128; ++k) t.erase(k);
  for (Key k = 1; k < 128; k += 2) t.insert(k);
  EXPECT_EQ(v.size(), ref.size());
  for (Key k = 0; k < 128; ++k) {
    ASSERT_EQ(v.contains(k), ref.count(k) > 0) << "k=" << k;
  }
  EXPECT_EQ(v.predecessor(100), testutil::ref_predecessor(ref, 100));
  EXPECT_EQ(v.successor(50), *ref.upper_bound(50));
  EXPECT_EQ(v.rank(64),
            static_cast<std::size_t>(std::distance(
                ref.begin(), ref.lower_bound(64))));
  EXPECT_EQ(v.select(3), *std::next(ref.begin(), 3));
  // Repeated scans of one view are identical, and atomic by construction.
  std::vector<Key> a;
  std::vector<Key> b;
  const ScanResult ra = v.range_scan_validated(10, 120, kNoScanLimit, a);
  const ScanResult rb = v.range_scan_validated(10, 120, kNoScanLimit, b);
  EXPECT_TRUE(ra.atomic);
  EXPECT_TRUE(rb.atomic);
  EXPECT_EQ(ra.retries, 0u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, ref_window(ref, 10, 120));
  v.release();
  EXPECT_FALSE(v.valid());
}

TEST(AtomicScan, SnapshotViewOfEmptyAndMovedFrom) {
  VersionedTrie t(64);
  SnapshotView v = t.snapshot();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.predecessor(64), kNoKey);
  EXPECT_EQ(v.successor(-1), kNoKey);
  std::vector<Key> out;
  EXPECT_EQ(v.range_scan(0, 63, kNoScanLimit, out), 0u);
  // Move transfers the pin; the source goes invalid, the target works.
  t.insert(7);
  SnapshotView w = t.snapshot();
  SnapshotView moved = std::move(w);
  EXPECT_TRUE(moved.valid());
  EXPECT_TRUE(moved.contains(7));
}

TEST(AtomicScan, SnapshotViewOracleDifferentialUnderWriter) {
  // Single writer mutates; readers take O(1) snapshots bracketed by
  // clock ticks and later scan the frozen view. The scanned window must
  // match some state version live in the acquisition interval — the
  // read-transaction linearizes at its root read.
  VersionedTrie t(48);
  SingleWriterOracle oracle;
  HistoryClock clock;
  constexpr int kReaders = 3;
  std::vector<std::vector<SingleWriterOracle::Query>> logs(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(501 + static_cast<uint64_t>(r));
      for (int i = 0; i < 400; ++i) {
        SingleWriterOracle::Query q;
        q.kind = OpKind::kRangeScan;
        q.y = static_cast<Key>(rng.bounded(40));
        q.hi = std::min<Key>(q.y + 1 + static_cast<Key>(rng.bounded(12)), 47);
        q.limit = 48;
        q.t1 = clock.tick();
        SnapshotView v = t.snapshot();
        q.t2 = clock.tick();
        std::vector<Key> out;
        q.answer = static_cast<Key>(
            v.range_scan(q.y, q.hi, q.limit, out));
        v.release();
        for (const Key k : out) q.mask |= uint64_t{1} << k;
        logs[r].push_back(q);
      }
    });
  }
  Xoshiro256 rng(500);
  for (int i = 0; i < 1200; ++i) {
    const Key k = static_cast<Key>(rng.bounded(48));
    oracle.writer_apply(t, rng.bounded(2) ? OpKind::kInsert : OpKind::kErase,
                        k, clock);
  }
  for (auto& th : readers) th.join();
  for (int r = 0; r < kReaders; ++r) {
    ASSERT_EQ(oracle.validate(logs[r]), -1) << "reader " << r;
  }
}

// ---- Type-erased facade ----------------------------------------------------

// Traversable but with no validated surface: the erased call must take
// the honest per-step fallback.
struct PerStepOnlySet {
  std::set<Key> s;
  void insert(Key k) { s.insert(k); }
  void erase(Key k) { s.erase(k); }
  bool contains(Key k) { return s.count(k) > 0; }
  Key predecessor(Key y) { return testutil::ref_predecessor(s, y); }
  Key successor(Key y) {
    auto it = s.upper_bound(y);
    return it == s.end() ? kNoKey : *it;
  }
  std::size_t range_scan(Key lo, Key hi, std::size_t limit,
                         std::vector<Key>& out) {
    std::size_t n = 0;
    for (auto it = s.lower_bound(lo); it != s.end() && *it <= hi; ++it) {
      if (n >= limit) break;
      out.push_back(*it);
      ++n;
    }
    return n;
  }
};
static_assert(TraversableOrderedSet<PerStepOnlySet>);
static_assert(!AtomicScanOrderedSet<PerStepOnlySet>);

TEST(AtomicScan, ErasedFacadeDelegatesOrDegradesHonestly) {
  LockFreeBinaryTrie trie(64);
  trie.insert(5);
  trie.insert(9);
  AnyOrderedSet a(trie);
  EXPECT_TRUE(a.supports_atomic_scan());
  std::vector<Key> out;
  const ScanResult r = a.range_scan_validated(0, 63, kNoScanLimit, out);
  EXPECT_TRUE(r.atomic);
  EXPECT_EQ(out, (std::vector<Key>{5, 9}));

  PerStepOnlySet plain;
  plain.insert(5);
  plain.insert(9);
  AnyOrderedSet b(plain);
  EXPECT_FALSE(b.supports_atomic_scan());
  out.clear();
  const ScanResult rb = b.range_scan_validated(0, 63, kNoScanLimit, out);
  EXPECT_FALSE(rb.atomic);  // per-step fallback makes no atomicity claim
  EXPECT_EQ(rb.n, 2u);
  EXPECT_EQ(out, (std::vector<Key>{5, 9}));
}

// ---- Atomic by construction ----------------------------------------------

// SnapshotView has no universe constructor: scan a fresh view of a
// VersionedTrie instead.
struct VersionedSnapshot {
  explicit VersionedSnapshot(Key universe) : trie(universe) {}
  void insert(Key x) { trie.insert(x); }
  ScanResult range_scan_validated(Key lo, Key hi, std::size_t limit,
                                  std::vector<Key>& out) {
    return trie.snapshot().range_scan_validated(lo, hi, limit, out);
  }
  VersionedTrie trie;
};

template <class S>
class AtomicByConstructionScan : public ::testing::Test {};
using AtomicByConstructionTypes =
    ::testing::Types<CowUniversalSet, VersionedTrie, SeqBinaryTrie,
                     VersionedSnapshot, LockedStdSet>;
TYPED_TEST_SUITE(AtomicByConstructionScan, AtomicByConstructionTypes);

TYPED_TEST(AtomicByConstructionScan, CountsOneAtomicScanPerScan) {
  if (!Stats::enabled()) GTEST_SKIP() << "built with TRIE_STATS=OFF";
  TypeParam s(256);
  std::set<Key> ref;
  for (Key k = 3; k < 256; k += 7) {
    s.insert(k);
    ref.insert(k);
  }
  for (int i = 0; i < 3; ++i) {
    std::vector<Key> out;
    const StepCounts before = Stats::local();
    const ScanResult r = s.range_scan_validated(10, 200, kNoScanLimit, out);
    const StepCounts d = Stats::local() - before;
    EXPECT_TRUE(r.atomic);
    EXPECT_EQ(r.retries, 0u);
    EXPECT_EQ(out, ref_window(ref, 10, 200));
    EXPECT_EQ(d.atomic_scans, 1u);
    EXPECT_EQ(d.scan_retries, 0u);
    EXPECT_EQ(d.scan_fallbacks, 0u);
  }
}

}  // namespace
}  // namespace lfbt
