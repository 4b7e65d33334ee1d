// Memory accounting for the reclamation subsystem.
//
// Every pooled allocation class (query nodes, notify nodes, update nodes,
// announcement cells, arena chunks) reports three monotone event counters
// plus a byte gauge through this surface:
//
//   bytes_reserved  -- slab/chunk bytes drawn from the OS for this class.
//                      Monotone: recycling means this stops growing, it
//                      never shrinks (slabs are immortal so that stale
//                      EBR-protected readers always dereference mapped
//                      memory, and LSan sees every node as reachable).
//   acquired/released -- objects handed out / returned. The difference,
//                      in_use(), is the live-object gauge.
//   recycled        -- acquisitions served from a free list instead of
//                      fresh slab space. recycled/acquired close to 1 is
//                      the steady-state signature the soak harness checks.
//
// The event counters are per thread slot (sync/thread_registry.hpp):
// every pooled acquire and release bumps them, so a process-wide counter
// would be a cache line that every core writes on every operation. Only
// the slot's owner writes its counters, with a relaxed load + store
// rather than a locked read-modify-write; they are atomics only so that
// snapshot() may read them concurrently, and it sums the slots. A slot's
// counters pass to its next owner with the slot, so the sums stay exact
// across thread exits. bytes_reserved stays a single global word per
// class: it changes only when a slab or chunk is carved.
//
// All counters are always on (the soak smoke test in CI runs against
// release builds) and relaxed: a snapshot taken while other threads run
// is approximate, one taken after joining them is exact.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "sync/cacheline.hpp"
#include "sync/thread_registry.hpp"

namespace lfbt {

enum class MemClass : int {
  kQueryNode = 0,
  kNotifyNode = 1,
  kUpdateNode = 2,
  kAnnCell = 3,
  kArenaChunk = 4,
  kVersionNode = 5,
  // Service-facade batch buffers (serve/batch.hpp): slot rings + the
  // coalescing key table, reserved once per BatchBuffer at construction.
  // The E16 buffer-reuse test asserts this gauge is FLAT across flushes —
  // a drain must never allocate.
  kBatchSlot = 6,
};

inline constexpr int kNumMemClasses = 7;

inline constexpr const char* kMemClassNames[kNumMemClasses] = {
    "query_node",  "notify_node",  "update_node", "ann_cell",
    "arena_chunk", "version_node", "batch_slot"};

class MemStats {
 public:
  struct ClassSnapshot {
    std::uint64_t bytes_reserved = 0;
    std::uint64_t acquired = 0;
    std::uint64_t released = 0;
    std::uint64_t recycled = 0;

    std::uint64_t in_use() const noexcept {
      return acquired >= released ? acquired - released : 0;
    }
  };

  struct Snapshot {
    ClassSnapshot cls[kNumMemClasses];

    std::uint64_t total_reserved() const noexcept {
      std::uint64_t t = 0;
      for (const auto& c : cls) t += c.bytes_reserved;
      return t;
    }
    std::uint64_t total_recycled() const noexcept {
      std::uint64_t t = 0;
      for (const auto& c : cls) t += c.recycled;
      return t;
    }
  };

  static void add_reserved(MemClass c, std::size_t bytes) noexcept {
    reserved(c).fetch_add(bytes, std::memory_order_relaxed);
  }

  /// One object handed out; `recycled` when it came from a free list.
  static void on_acquire(MemClass c, bool recycled) noexcept {
    Counters& k = own(c);
    bump(k.acquired);
    if (recycled) bump(k.recycled);
  }

  /// One object returned (counted when the release is *requested*, i.e. at
  /// ebr::retire time, not when the grace period expires).
  static void on_release(MemClass c) noexcept { bump(own(c).released); }

  static ClassSnapshot snapshot(MemClass c) noexcept {
    ClassSnapshot s;
    s.bytes_reserved = reserved(c).load(std::memory_order_relaxed);
    const int n = ThreadRegistry::high_water();
    for (int t = 0; t < n; ++t) {
      const Counters& k = slots()[t].cls[static_cast<int>(c)];
      s.acquired += k.acquired.load(std::memory_order_relaxed);
      s.released += k.released.load(std::memory_order_relaxed);
      s.recycled += k.recycled.load(std::memory_order_relaxed);
    }
    return s;
  }

  static Snapshot snapshot_all() noexcept {
    Snapshot s;
    for (int i = 0; i < kNumMemClasses; ++i) {
      s.cls[i] = snapshot(static_cast<MemClass>(i));
    }
    return s;
  }

  /// Pool + chunk bytes ever reserved, process-wide. Flat across soak
  /// windows == the structure reached its steady-state footprint.
  static std::size_t total_reserved() noexcept {
    return snapshot_all().total_reserved();
  }

 private:
  struct Counters {
    std::atomic<std::uint64_t> acquired{0};
    std::atomic<std::uint64_t> released{0};
    std::atomic<std::uint64_t> recycled{0};
  };
  struct alignas(kCacheLine) SlotCounters {
    Counters cls[kNumMemClasses];
  };

  // Owner-only writer: no locked RMW needed.
  static void bump(std::atomic<std::uint64_t>& v) noexcept {
    v.store(v.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  static Counters& own(MemClass c) noexcept {
    return slots()[ThreadRegistry::id()].cls[static_cast<int>(c)];
  }

  static SlotCounters* slots() noexcept {
    static SlotCounters s[kMaxThreads];
    return s;
  }

  static std::atomic<std::uint64_t>& reserved(MemClass c) noexcept {
    static PaddedAtomic<std::uint64_t> r[kNumMemClasses];
    return r[static_cast<int>(c)].value;
  }
};

}  // namespace lfbt
