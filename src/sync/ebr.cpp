#include "sync/ebr.hpp"

#include <array>
#include <chrono>
#include <thread>

namespace lfbt::ebr {
namespace {

// Announce word: 0 = outside any guard. The global epoch starts at 1 and
// only grows, so 0 never collides with a real epoch.
constexpr uint64_t kIdle = 0;
constexpr int kCollectEvery = 64;
// Limbo backpressure (see Guard::Guard). Unstalled threads stay well
// below the cap (docs/DESIGN.md, "Sync substrates", has measurements);
// it binds while some guard holder is stalled.
constexpr std::size_t kLimboSoftCap = 4096;
constexpr auto kBackoffSleep = std::chrono::microseconds(20);

struct Retired {
  void* ptr;
  void (*deleter)(void*);
  uint64_t epoch;
};

// False-sharing fix (E16 audit): the per-thread announce word is read by
// every thread that retires (min_announced scans all slots), but it used
// to share its cache line with the owner's limbo vector — so every
// owner-side retire (a push_back mutating the vector's size field)
// invalidated the line under all concurrent scanners, and every guard
// enter/exit invalidated the owner's own limbo line. Announce words now
// live in their own PaddedAtomic array (one line each, and a dense
// read-only-to-scanners region for the min_announced sweep); the
// owner-only state below keeps its line padding so two owners' limbo
// vectors never share a line either. E16 on the 1-core dev container
// measures this within noise (no cross-core invalidation traffic exists
// there, 8-thread update-heavy delta +1%); the structural hazard —
// O(threads) invalidations per retire — only exists on multicore hosts.
PaddedAtomic<uint64_t> g_announce[kMaxThreads];  // zero-init == kIdle

struct alignas(kCacheLine) ThreadState {  // owner-thread only
  int nesting = 0;
  int since_collect = 0;
  bool sweeping = false;
  std::vector<Retired> limbo;
  // limbo.size(), mirrored after every change so that pending() can read
  // it from other threads. Only the owner stores it (and drain_unsafe,
  // which runs at quiescence), so the per-retire bookkeeping stays on the
  // owner's line instead of one process-wide counter that every retiring
  // core would write.
  std::atomic<std::size_t> pending{0};

  void sync_pending() {
    pending.store(limbo.size(), std::memory_order_relaxed);
  }
};

std::atomic<uint64_t> g_epoch{1};
std::array<ThreadState, kMaxThreads> g_threads;

ThreadState& self() { return g_threads[ThreadRegistry::id()]; }

/// Smallest epoch announced by any thread inside a critical section, or
/// the global epoch if none is.
uint64_t min_announced() {
  uint64_t min = g_epoch.load(std::memory_order_acquire);
  const int n = ThreadRegistry::high_water();
  for (int i = 0; i < n; ++i) {
    uint64_t e = g_announce[i].value.load(std::memory_order_acquire);
    if (e != kIdle && e < min) min = e;
  }
  return min;
}

void try_advance() {
  uint64_t e = g_epoch.load(std::memory_order_acquire);
  if (min_announced() == e) {
    g_epoch.compare_exchange_strong(e, e + 1, std::memory_order_acq_rel);
  }
}

void sweep(ThreadState& ts) {
  // Deleters may compose teardown work that calls retire() again (e.g.
  // a query announcement's notify-chain drain releasing each chain node
  // back to its pool). Those nested retires land at the END of this same
  // limbo vector — the index loop picks them up, and their fresh epoch
  // keeps them parked — but a nested retire crossing the kCollectEvery
  // threshold must NOT start a second sweep of the vector we are mid-
  // compaction on: two interleaved `kept` cursors would duplicate
  // entries (a double free) or drop them (a leak). The flag makes the
  // nested collect() a no-op.
  if (ts.sweeping) return;
  ts.sweeping = true;
  // Nodes retired in epoch r are safe once every reader has announced an
  // epoch > r, i.e. min_announced() >= r + 2 (readers announced at r may
  // still hold references acquired in r; one full epoch in between makes
  // the grace period airtight).
  const uint64_t safe_before = min_announced();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ts.limbo.size(); ++i) {
    Retired r = ts.limbo[i];  // by value: deleters may reallocate limbo
    if (r.epoch + 2 <= safe_before) {
      r.deleter(r.ptr);
    } else {
      ts.limbo[kept++] = r;
    }
  }
  ts.limbo.resize(kept);
  ts.sync_pending();
  ts.sweeping = false;
}

}  // namespace

Guard::Guard() {
  const int id = ThreadRegistry::id();
  ThreadState& ts = g_threads[id];
  if (ts.nesting == 0 && ts.limbo.size() >= kLimboSoftCap) {
    // Backpressure. A guard holder that is preempted (an oversubscribed
    // host) stalls every grace period, and each other thread's limbo then
    // grows with its op rate for as long as the stall lasts. A thread
    // whose limbo is over the cap, outside any guard of its own, first
    // tries to reclaim; if the epoch is still stuck, it sleeps once
    // before starting the critical section, which hands its CPU to
    // runnable threads such as the stalled holder. The delay is bounded,
    // so no operation ever waits on another thread.
    collect();
    if (ts.limbo.size() >= kLimboSoftCap) {
      std::this_thread::sleep_for(kBackoffSleep);
    }
  }
  if (ts.nesting++ == 0) {
    // seq_cst publish so retiring threads cannot miss us.
    g_announce[id].value.store(g_epoch.load(std::memory_order_acquire),
                               std::memory_order_seq_cst);
  }
}

Guard::~Guard() {
  const int id = ThreadRegistry::id();
  if (--g_threads[id].nesting == 0) {
    g_announce[id].value.store(kIdle, std::memory_order_release);
  }
}

void retire(void* ptr, void (*deleter)(void*)) {
  ThreadState& ts = self();
  ts.limbo.push_back({ptr, deleter, g_epoch.load(std::memory_order_acquire)});
  ts.sync_pending();
  if (++ts.since_collect >= kCollectEvery) {
    ts.since_collect = 0;
    collect();
  }
}

void collect() {
  try_advance();
  sweep(self());
}

void synchronize() {
  // The token lands in this thread's limbo stamped with the current
  // epoch; its deleter runs exactly when a grace period has elapsed —
  // i.e. when every guard live at the retire has exited. Spinning
  // collect() both advances the global epoch and sweeps our own limbo.
  std::atomic<bool> done{false};
  retire(&done, [](void* p) {
    static_cast<std::atomic<bool>*>(p)->store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    collect();
    std::this_thread::yield();
  }
}

void drain_unsafe() {
  // Deleters may retire more work (composed teardown; see sweep) — it
  // lands in the CALLING thread's limbo, which may already have been
  // visited. Swap batches out and loop until every list stays empty.
  bool again = true;
  while (again) {
    again = false;
    for (auto& ts : g_threads) {
      while (!ts.limbo.empty()) {
        again = true;
        std::vector<Retired> batch;
        batch.swap(ts.limbo);
        ts.sync_pending();
        for (Retired& r : batch) r.deleter(r.ptr);
      }
    }
  }
}

std::size_t pending() {
  std::size_t n = 0;
  const int hw = ThreadRegistry::high_water();
  for (int i = 0; i < hw; ++i) {
    n += g_threads[i].pending.load(std::memory_order_relaxed);
  }
  return n;
}

}  // namespace lfbt::ebr
