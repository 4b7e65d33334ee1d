#include "sync/ebr.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>
#include "ebr_test_util.hpp"
#include "reclaim/mem_stats.hpp"

namespace lfbt {
namespace {

struct Tracked {
  explicit Tracked(std::atomic<int>& c) : counter(c) { counter.fetch_add(1); }
  ~Tracked() { counter.fetch_sub(1); }
  std::atomic<int>& counter;
};

TEST(Ebr, RetiredNodesEventuallyFreed) {
  std::atomic<int> live{0};
  for (int i = 0; i < 1000; ++i) ebr::retire(new Tracked(live));
  // With no readers, repeated collects advance epochs and drain.
  for (int i = 0; i < 10 && live.load() != 0; ++i) ebr::collect();
  EXPECT_EQ(live.load(), 0);
}

TEST(Ebr, GuardBlocksReclamation) {
  std::atomic<int> live{0};
  std::atomic<bool> guard_entered{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    ebr::Guard g;
    guard_entered = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!guard_entered.load()) std::this_thread::yield();
  // Retire after the guard is active: must not be freed while it holds.
  auto* t = new Tracked(live);
  ebr::retire(t);
  for (int i = 0; i < 20; ++i) ebr::collect();
  EXPECT_EQ(live.load(), 1) << "node freed under an active guard";
  release = true;
  reader.join();
  for (int i = 0; i < 20 && live.load() != 0; ++i) ebr::collect();
  EXPECT_EQ(live.load(), 0);
}

TEST(Ebr, NestedGuardsAreSupported) {
  std::atomic<int> live{0};
  {
    ebr::Guard outer;
    {
      ebr::Guard inner;
      ebr::retire(new Tracked(live));
    }
    for (int i = 0; i < 10; ++i) ebr::collect();
    EXPECT_EQ(live.load(), 1);  // outer still protects
  }
  for (int i = 0; i < 20 && live.load() != 0; ++i) ebr::collect();
  EXPECT_EQ(live.load(), 0);
}

TEST(Ebr, ConcurrentChurnDoesNotLoseOrDoubleFree) {
  std::atomic<int> live{0};
  constexpr int kThreads = 6;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        ebr::Guard g;
        ebr::retire(new Tracked(live));
      }
    });
  }
  for (auto& t : ts) t.join();
  ebr::drain_unsafe();  // all threads joined: safe
  EXPECT_EQ(live.load(), 0);
  EXPECT_EQ(ebr::pending(), 0u);
}

TEST(Ebr, PerThreadCountsSumExactly) {
  // MemStats event counters and the EBR limbo count are kept per thread
  // slot and summed by their readers. After a join the sums must be exact:
  // no event lost, none counted twice, whichever slots the threads got.
  ebr::drain_unsafe();
  const std::size_t pending0 = ebr::pending();
  const MemStats::ClassSnapshot before =
      MemStats::snapshot(MemClass::kVersionNode);
  std::atomic<int> live{0};
  constexpr int kThreads = 4;
  constexpr int kEach = 1000;
  {
    // Pins the epoch: nothing retired below can be freed until it ends,
    // so every retire is still pending after the join.
    ebr::Guard pin;
    std::atomic<int> done{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&] {
        for (int i = 0; i < kEach; ++i) {
          MemStats::on_acquire(MemClass::kVersionNode, /*recycled=*/i % 2);
          MemStats::on_release(MemClass::kVersionNode);
          ebr::retire(new Tracked(live));
        }
        // Hold the slot until every thread has finished, so the counts
        // really are spread over kThreads slots.
        done.fetch_add(1);
        while (done.load() != kThreads) std::this_thread::yield();
      });
    }
    for (auto& t : ts) t.join();
    const MemStats::ClassSnapshot after =
        MemStats::snapshot(MemClass::kVersionNode);
    EXPECT_EQ(after.acquired - before.acquired, 1u * kThreads * kEach);
    EXPECT_EQ(after.recycled - before.recycled, 1u * kThreads * kEach / 2);
    EXPECT_EQ(after.released - before.released, 1u * kThreads * kEach);
    EXPECT_EQ(ebr::pending(), pending0 + kThreads * kEach);
    EXPECT_EQ(live.load(), kThreads * kEach);
  }
  ebr::drain_unsafe();  // all threads joined, guard gone: safe
  EXPECT_EQ(ebr::pending(), pending0);
  EXPECT_EQ(live.load(), 0);
}

}  // namespace
}  // namespace lfbt
