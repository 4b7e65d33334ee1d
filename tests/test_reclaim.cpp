// The reclamation subsystem (src/reclaim/): RecyclePool's carve/release/
// recycle discipline on a private instantiation, the spill from a full
// thread cache to the shared free list, MemStats accounting,
// ChunkStore retire-and-reuse, steady-state footprint across whole
// structure lifetimes (arena chunks + pools + the announcement-cell
// quarantine all cycling), and a miniature churn soak through the same
// harness the E13 bench and the CI smoke step use.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "baselines/versioned_trie.hpp"
#include "core/lockfree_trie.hpp"
#include "ebr_test_util.hpp"
#include "reclaim/chunk_retire.hpp"
#include "reclaim/mem_stats.hpp"
#include "reclaim/node_pool.hpp"
#include "sync/random.hpp"
#include "workload/soak.hpp"

namespace lfbt {
namespace {

// A pool instantiation private to this test binary: RecyclePool's statics
// are per-Traits, so allocated_count() here counts only what these tests
// carve. MemStats is shared process-wide per class — every counter check
// below is a delta for that reason.
struct TestNode {
  std::atomic<TestNode*> link{nullptr};
  std::uint64_t payload = 0;
};
struct TestTraits {
  using Node = TestNode;
  static constexpr MemClass kClass = MemClass::kQueryNode;
  static Node* free_link(Node* n) { return n->link.load(); }
  static void set_free_link(Node* n, Node* next) { n->link.store(next); }
  static void construct(void* p) { ::new (p) TestNode(); }
};
using TestPool = reclaim::RecyclePool<TestTraits>;

TEST(RecyclePool, CarveThenRecycleAfterGrace) {
  const MemStats::ClassSnapshot before =
      MemStats::snapshot(TestTraits::kClass);

  // Fresh pool: the first batch is carved from a new slab, blank.
  constexpr int kBatch = 100;
  std::vector<TestNode*> nodes;
  for (int i = 0; i < kBatch; ++i) {
    auto [n, recycled] = TestPool::acquire();
    EXPECT_FALSE(recycled);
    EXPECT_EQ(n->payload, 0u);  // Traits::construct blanked it
    n->payload = static_cast<std::uint64_t>(i) + 1;
    nodes.push_back(n);
  }
  const std::size_t carved = TestPool::allocated_count();
  EXPECT_EQ(carved, static_cast<std::size_t>(kBatch));

  // Release -> grace -> free list. Nodes must NOT be reusable before the
  // grace period elapses; draining the limbo (legal here: single thread,
  // no live guard) is what stocks the free list.
  for (TestNode* n : nodes) TestPool::release(n);
  ebr::drain_unsafe();

  // The second batch is served entirely from recycled nodes — with their
  // stale fields intact (reset is the caller's job, by contract).
  std::set<TestNode*> seen;
  for (int i = 0; i < kBatch; ++i) {
    auto [n, recycled] = TestPool::acquire();
    EXPECT_TRUE(recycled);
    EXPECT_GT(n->payload, 0u);                 // stale stamp survived
    EXPECT_TRUE(seen.insert(n).second);        // no double hand-out
    EXPECT_EQ(seen.count(n), 1u);
  }
  EXPECT_EQ(TestPool::allocated_count(), carved);  // zero new carves

  // MemStats delta: one slab reserved, 2 * kBatch acquisitions of which
  // the second kBatch were recycled, kBatch releases.
  const MemStats::ClassSnapshot after = MemStats::snapshot(TestTraits::kClass);
  EXPECT_GE(after.bytes_reserved - before.bytes_reserved, 256u * 1024u);
  EXPECT_EQ(after.acquired - before.acquired, 2u * kBatch);
  EXPECT_EQ(after.recycled - before.recycled, static_cast<uint64_t>(kBatch));
  EXPECT_EQ(after.released - before.released, static_cast<uint64_t>(kBatch));
}

// A second private pool, so allocated_count() below is not shared with
// the test above: a derived Traits is a distinct instantiation.
struct SpillTraits : TestTraits {};
using SpillPool = reclaim::RecyclePool<SpillTraits>;

TEST(RecyclePool, CacheOverflowSpillsToSharedStack) {
  // Thread caches must not strand memory. This thread releases far more
  // nodes than its cache holds and drains them, so the deleters run here:
  // at most kCacheCapacity stay in this thread's cache and the rest must
  // reach the shared stack, where another thread recycles them.
  constexpr std::size_t kCap = SpillPool::kCacheCapacity;
  constexpr std::size_t kReleased = 4 * kCap + 7;
  std::vector<TestNode*> nodes;
  for (std::size_t i = 0; i < kReleased; ++i) {
    nodes.push_back(SpillPool::acquire().node);
  }
  ASSERT_EQ(SpillPool::allocated_count(), kReleased);
  for (TestNode* n : nodes) SpillPool::release(n);
  ebr::drain_unsafe();

  // This thread stays alive, so the other one cannot inherit its slot
  // (and with it the cache).
  std::size_t recycled = 0;
  std::thread other([&] {
    for (std::size_t i = 0; i < kReleased; ++i) {
      recycled += SpillPool::acquire().recycled ? 1 : 0;
    }
  });
  other.join();
  EXPECT_GE(recycled, kReleased - kCap);
  EXPECT_LE(SpillPool::allocated_count() - kReleased, kCap)
      << "released nodes stranded in a thread cache";
  EXPECT_EQ(recycled + (SpillPool::allocated_count() - kReleased), kReleased);
}

TEST(MemStats, CountersAndDerivedGauges) {
  const MemStats::ClassSnapshot before = MemStats::snapshot(MemClass::kAnnCell);
  const std::uint64_t total_before = Stats::memory().total_reserved();

  MemStats::add_reserved(MemClass::kAnnCell, 4096);
  MemStats::on_acquire(MemClass::kAnnCell, /*recycled=*/false);
  MemStats::on_acquire(MemClass::kAnnCell, /*recycled=*/true);
  MemStats::on_acquire(MemClass::kAnnCell, /*recycled=*/true);
  MemStats::on_release(MemClass::kAnnCell);

  const MemStats::ClassSnapshot after = MemStats::snapshot(MemClass::kAnnCell);
  EXPECT_EQ(after.bytes_reserved - before.bytes_reserved, 4096u);
  EXPECT_EQ(after.acquired - before.acquired, 3u);
  EXPECT_EQ(after.recycled - before.recycled, 2u);
  EXPECT_EQ(after.released - before.released, 1u);
  EXPECT_EQ(after.in_use(), after.acquired - after.released);
  EXPECT_EQ(Stats::memory().total_reserved() - total_before, 4096u);

  // in_use() is a clamped gauge, never an underflowed huge number.
  MemStats::ClassSnapshot s;
  s.acquired = 1;
  s.released = 3;
  EXPECT_EQ(s.in_use(), 0u);
}

TEST(ChunkStore, RetiredChunkIsReusedForTheNextFit) {
  using reclaim::ChunkStore;
  const MemStats::ClassSnapshot before =
      MemStats::snapshot(MemClass::kArenaChunk);

  ChunkStore::Chunk* c = ChunkStore::acquire(1000);
  ASSERT_NE(c, nullptr);
  EXPECT_GE(c->payload, 1000u);
  EXPECT_EQ(c->payload & (c->payload - 1), 0u);  // power-of-two rounding

  // Retire, flush the grace period, re-request a size the same bucket
  // serves: the store must hand the SAME chunk back (LIFO bucket, and we
  // just pushed it).
  ChunkStore::release(c);
  ebr::drain_unsafe();
  ChunkStore::Chunk* again = ChunkStore::acquire(900);
  EXPECT_EQ(again, c);

  const MemStats::ClassSnapshot after =
      MemStats::snapshot(MemClass::kArenaChunk);
  EXPECT_EQ(after.acquired - before.acquired, 2u);
  EXPECT_EQ(after.recycled - before.recycled, 1u);
  EXPECT_EQ(after.released - before.released, 1u);
  ChunkStore::release(again);  // leave no dangling ownership
}

TEST(Reclaim, TrieDestructionLeavesPinnedNodesToTheirLastUnpin) {
  // A retired query announcement drains its notify chain after a grace
  // period, possibly on another thread's EBR limbo and after the trie it
  // served is gone, dropping the pins its notifications hold on update
  // nodes. The destructor must leave such a node to that last unpin: a
  // node freed regardless of pins is recycled into a live trie, and the
  // late unpin then strips a pin from its new owner.
  UpdateNode* u = nullptr;
  {
    LockFreeBinaryTrie t(64);
    t.insert(5);
    u = t.core_for_test().find_latest(5);  // resident, first-activated INS
    ASSERT_TRUE(u->pooled());
    ASSERT_TRUE(u->try_pin());  // stands in for a pending drain's pin
  }
  ebr::drain_unsafe();  // every grace period the destructor started ends
  const std::uint64_t state =
      u->reclaim.load() & UpdateNode::kStateMask;
  EXPECT_EQ(state, UpdateNode::kStateRetired)
      << "destruction released a node that still holds a pin";
  // Pool pressure: had the node gone back to its pool, it would be
  // handed out again here.
  std::vector<UpdateNode*> fresh;
  for (int i = 0; i < 4096; ++i) fresh.push_back(InsNodePool::acquire(0));
  for (UpdateNode* f : fresh) EXPECT_NE(f, u);
  for (UpdateNode* f : fresh) retire_unpublished(f);
  // The late unpin is the last one out and owns the release.
  ASSERT_TRUE(u->unpin());
  release_update_to_pool(u);
  ebr::drain_unsafe();
}

TEST(Reclaim, StructureLifetimeChurnReachesSteadyFootprint) {
  // Create / churn / destroy whole tries in a loop. Every class cycles:
  // arena chunks retire to the ChunkStore at trie destruction, update /
  // notify / query nodes flow through their pools, announcement cells
  // through the quarantine. After a warm-up lifetime establishes the
  // high-water mark, further identical lifetimes must draw bytes from
  // recycling, not from the OS.
  auto churn_once = [] {
    LockFreeBinaryTrie t(1 << 10);
    Xoshiro256 rng(4242);  // same seed: identical per-lifetime demand
    for (int i = 0; i < 4000; ++i) {
      const Key k = static_cast<Key>(rng.bounded(1 << 10));
      switch (rng.bounded(5)) {
        case 0:
        case 1:
          t.insert(k);
          break;
        case 2:
          t.erase(k);
          break;
        case 3:
          t.predecessor(k + 1);
          break;
        default:
          t.successor(k - 1);
      }
    }
  };

  churn_once();  // warm-up: carve slabs/chunks up to the high-water mark
  ebr::drain_unsafe();
  const std::uint64_t reserved_warm = Stats::memory().total_reserved();

  for (int round = 0; round < 4; ++round) {
    churn_once();
    ebr::drain_unsafe();
  }
  const std::uint64_t reserved_after = Stats::memory().total_reserved();
  // Slack: one pool slab. EBR timing can shift which acquisition crosses
  // a slab boundary; four lifetimes of growth would be far larger.
  EXPECT_LE(reserved_after, reserved_warm + 256u * 1024u)
      << "structure-lifetime churn keeps reserving fresh memory";
}

TEST(Reclaim, ChurnSoakSmokeTailIsFlat) {
  // The E13 predicate through the same harness the bench and the CI
  // smoke step use, at unit-test scale.
  LockFreeBinaryTrie t(1 << 10);
  SoakConfig cfg;
  cfg.threads = 2;
  cfg.windows = 4;
  cfg.ops_per_thread_per_window = 8000;
  cfg.universe = 1 << 10;
  cfg.mix = kUpdateHeavy;
  const std::vector<SoakWindowSample> samples = churn_soak(t, cfg);
  ASSERT_EQ(samples.size(), 4u);
  for (const SoakWindowSample& s : samples) {
    EXPECT_GT(s.ops, 0u);
    EXPECT_GT(s.structure_bytes, 0u);  // the trie reports its arena
    EXPECT_GT(s.pool_bytes, 0u);       // pools saw traffic
  }
  EXPECT_TRUE(soak_tail_is_flat(samples));
}

TEST(Reclaim, SnapshotReleaseUnpinsVersionNodes) {
  // Version-node lifecycle across whole VersionedTrie lifetimes WITH
  // SnapshotViews held mid-churn: every node acquired from the pool must
  // be handed back (balanced counters), and a second identical lifetime
  // must be served from recycling, not fresh slabs — i.e. releasing the
  // views really does unpin their versions for reclamation.
  const MemStats::ClassSnapshot before =
      MemStats::snapshot(MemClass::kVersionNode);
  auto churn_with_snapshots = [] {
    VersionedTrie t(1 << 8);
    Xoshiro256 rng(777);  // same seed: identical per-lifetime demand
    std::vector<SnapshotView> held;
    for (int i = 0; i < 3000; ++i) {
      const Key k = static_cast<Key>(rng.bounded(1 << 8));
      if (rng.bounded(2)) {
        t.insert(k);
      } else {
        t.erase(k);
      }
      if (i % 128 == 0) held.push_back(t.snapshot());
    }
    std::vector<Key> out;
    for (SnapshotView& v : held) {
      out.clear();
      v.range_scan(0, 255, kNoScanLimit, out);  // frozen versions readable
      v.release();
    }
  };

  churn_with_snapshots();  // warm-up: carves the high-water mark
  ebr::drain_unsafe();     // legal: single thread, no guard live
  const MemStats::ClassSnapshot warm =
      MemStats::snapshot(MemClass::kVersionNode);
  EXPECT_EQ(warm.acquired - before.acquired, warm.released - before.released)
      << "version nodes acquired but never retired";

  churn_with_snapshots();
  ebr::drain_unsafe();
  const MemStats::ClassSnapshot after =
      MemStats::snapshot(MemClass::kVersionNode);
  EXPECT_EQ(after.acquired - warm.acquired, after.released - warm.released);
  EXPECT_LE(after.bytes_reserved, warm.bytes_reserved + 256u * 1024u)
      << "released snapshots did not return version nodes to the pool";
}

TEST(Reclaim, SnapshotLifetimeSoakStaysFlat) {
  // The E13 flatness gate over snapshot churn: the soak disturbance takes,
  // scans and releases a burst of SnapshotViews concurrently with every
  // update window. Holding a view pins the epoch and stalls reclamation —
  // the property under test is that RELEASING it lets the tail stay flat
  // instead of accreting one pinned version per view.
  VersionedTrie t(1 << 8);
  SoakConfig cfg;
  cfg.threads = 2;
  cfg.windows = 6;
  cfg.ops_per_thread_per_window = 6000;
  cfg.universe = 1 << 8;
  cfg.mix = kUpdateHeavy;
  cfg.disturbance = [&t](int) {
    std::vector<Key> out;
    for (int i = 0; i < 200; ++i) {
      SnapshotView v = t.snapshot();
      out.clear();
      v.range_scan(0, 255, kNoScanLimit, out);
      v.release();  // view is thread-affine: released on this thread
    }
    // Flush the released views' limbo backlog so the post-window
    // sample sees the steady state, not in-flight grace periods (same
    // discipline as the resharding churn soak).
    ebr::synchronize();
  };
  const std::vector<SoakWindowSample> samples = churn_soak(t, cfg);
  ASSERT_EQ(samples.size(), 6u);
  for (const SoakWindowSample& s : samples) EXPECT_GT(s.ops, 0u);
  EXPECT_TRUE(soak_tail_is_flat(samples))
      << "snapshot churn leaked: pools "
      << samples[samples.size() - 2].pool_bytes << " -> "
      << samples.back().pool_bytes << " bytes";
}

}  // namespace
}  // namespace lfbt
