// RecyclePool: an EBR-backed free list over immortal slab storage, one
// instantiation per hot allocation class (query nodes, notify nodes,
// update nodes, announcement cells, version nodes).
//
// Each pool has two tiers, after Bonwick & Adams's per-CPU magazines
// ("Magazines and Vmem", USENIX ATC 2001):
//  * a per-thread-slot cache (sync/thread_registry.hpp) of two magazines
//    of kMagazine nodes each, touched only by the slot's owner — no
//    guard, no CAS, no shared cache line;
//  * a shared Treiber stack that takes what the caches cannot hold.
// Post-grace hand-backs (the ebr deleter behind release(), and
// recycle_now()) push onto the calling thread's cache. When both of its
// magazines are full, one of them is spilled to the shared stack as one
// chain with one CAS. acquire() pops the cache first and falls back
// to a guarded pop of the shared stack, then to carving a slab.
//
// The recipe:
//  * The shared pop runs under an ebr::Guard (taken internally), which
//    makes it ABA-free: a node re-enters the shared stack only through
//    ebr::retire + a full grace period, which cannot elapse while the
//    popping thread's guard is live — so the popped node's free-link is
//    stable for the duration of the compare-exchange.
//  * The caches keep that argument intact through one rule: a node
//    enters a cache only from a post-grace hand-back. acquire() never
//    moves a node it popped from the shared stack into a cache; that node
//    goes to the caller and comes back only through release() and a new
//    grace period. So every node on the shared stack, spilled or not,
//    crossed a grace period after it last left it.
//  * release() requires the node to be *physically detached* from every
//    shared structure (list unlinks completed, no new references
//    creatable). The grace period then outlasts every thread that could
//    still hold a stale reference from an older traversal. There is
//    deliberately no push-without-grace: an immediate re-push would
//    reintroduce the ABA window acquire() relies on being closed, and
//    would hand a cached node to a new owner under a stale reader.
//  * Recycled nodes are handed back with stale fields; the caller resets
//    them individually (never destroy + placement-new, which would end
//    and restart atomic members' lifetimes with non-atomic stores while a
//    losing concurrent popper may still be reading the free-list link).
//    Fresh nodes come blank from Traits::construct.
//  * Slabs are immortal and threaded on a chain: stale EBR-protected
//    readers always dereference mapped memory, leak checkers see every
//    node as reachable, and pointer-identity schemes (generation
//    counters, pin words) stay sound because storage never returns to
//    the general heap.
//
// Cache bounds. A slot's cache holds at most kCacheCapacity nodes per
// pool, so the caches together hold at most kCacheCapacity x pools x
// live slots nodes that the shared stack cannot see. A cache belongs to
// its thread slot, not its thread: when a thread exits, its cache passes
// to the next thread that claims the slot, as its EBR limbo does. A
// cache therefore never strands nodes beyond that bound.
//
// Traits contract:
//   struct XTraits {
//     using Node = X;
//     static constexpr MemClass kClass = MemClass::k...;
//     static Node* free_link(Node* n);            // atomic load
//     static void set_free_link(Node* n, Node* next);  // atomic store
//     static void construct(void* storage);       // placement-new, blank
//   };
#pragma once

#include <atomic>
#include <cstddef>
#include <new>
#include <utility>

#include "reclaim/mem_stats.hpp"
#include "sync/cacheline.hpp"
#include "sync/ebr.hpp"
#include "sync/thread_registry.hpp"

namespace lfbt::reclaim {

template <class Traits>
class RecyclePool {
 public:
  using Node = typename Traits::Node;

  struct Acquired {
    Node* node;
    bool recycled;  // true => fields are stale, caller must reset them
  };

  /// Nodes one thread slot's cache can hold: two magazines.
  static constexpr std::size_t kMagazine = 32;
  static constexpr std::size_t kCacheCapacity = 2 * kMagazine;

  /// Pop a recycled node (own cache, then the shared stack) or carve +
  /// blank-construct a fresh one. Safe with or without an enclosing
  /// ebr::Guard (the shared pop takes its own).
  static Acquired acquire() {
    ThreadCache& c = own_cache();
    if (c.loaded.count == 0) std::swap(c.loaded, c.spare);
    if (c.loaded.count != 0) {
      MemStats::on_acquire(Traits::kClass, /*recycled=*/true);
      return {c.loaded.pop(), true};
    }
    {
      ebr::Guard g;
      Node* n = free_head().load(std::memory_order_acquire);
      while (n != nullptr &&
             !free_head().compare_exchange_weak(n, Traits::free_link(n),
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
      }
      if (n != nullptr) {
        MemStats::on_acquire(Traits::kClass, /*recycled=*/true);
        return {n, true};
      }
    }
    void* storage = carve();
    Traits::construct(storage);
    MemStats::on_acquire(Traits::kClass, /*recycled=*/false);
    return {static_cast<Node*>(storage), false};
  }

  /// Hand a detached node to EBR; it rejoins the free list after the
  /// grace period. Also the right call for acquired-but-never-published
  /// nodes (CAS losers): the extra grace period costs nothing and keeps
  /// every path ABA-safe.
  static void release(Node* n) {
    MemStats::on_release(Traits::kClass);
    ebr::retire(n, [](void* p) { push_free(static_cast<Node*>(p)); });
  }

  /// Hand a node straight back to the free list, skipping release()'s
  /// ebr::retire. Only legal from a context that is itself past a grace
  /// period for the node (an ebr deleter of a retire that followed the
  /// node's detachment) — callers who composed extra teardown work into
  /// a custom deleter use this for the final hand-back, and count the
  /// release themselves (MemStats::on_release) at retire time.
  static void recycle_now(Node* n) { push_free(n); }

  /// Nodes ever carved from slabs (== fresh allocations; recycled
  /// acquisitions don't count). Test observability.
  static std::size_t allocated_count() noexcept {
    return carved().load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kSlabBytes = 256 * 1024;
  static constexpr std::size_t kStride =
      (sizeof(Node) + alignof(std::max_align_t) - 1) &
      ~(alignof(std::max_align_t) - 1);

  struct Slab {
    Slab* next;
    std::atomic<std::size_t> used{0};
    std::size_t payload;
    alignas(std::max_align_t) char data[1];  // flexible tail
  };

  static void* carve() {
    for (;;) {
      Slab* s = slab().load(std::memory_order_acquire);
      if (s != nullptr) {
        std::size_t off = s->used.fetch_add(kStride, std::memory_order_relaxed);
        if (off + kStride <= s->payload) {
          carved().fetch_add(1, std::memory_order_relaxed);
          return s->data + off;
        }
        // Slab exhausted (overshoot of `used` is harmless); install a new
        // one. Losers of the install race re-loop into the winner's slab.
      }
      grow(s);
    }
  }

  static void grow(Slab* expected) {
    const std::size_t payload = kSlabBytes - sizeof(Slab);
    auto* s = static_cast<Slab*>(
        ::operator new(kSlabBytes, std::align_val_t{kCacheLine}));
    s->used.store(0, std::memory_order_relaxed);
    s->payload = payload;
    if (!slab().compare_exchange_strong(expected, s,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      // Lost the install race; the winner's slab serves everyone.
      ::operator delete(s, std::align_val_t{kCacheLine});
      return;
    }
    MemStats::add_reserved(Traits::kClass, kSlabBytes);
    // Thread onto the immortal slab chain (registry for reachability).
    Slab* head = slabs_all().load(std::memory_order_relaxed);
    do {
      s->next = head;
    } while (!slabs_all().compare_exchange_weak(head, s,
                                                std::memory_order_release,
                                                std::memory_order_relaxed));
  }

  /// A LIFO run of nodes linked through Traits' free link. `tail` is the
  /// bottom node, kept so that a full magazine can be spilled in one CAS.
  struct Magazine {
    Node* head = nullptr;
    Node* tail = nullptr;
    std::size_t count = 0;

    void push(Node* n) {
      Traits::set_free_link(n, head);
      if (count++ == 0) tail = n;
      head = n;
    }
    Node* pop() {
      Node* n = head;
      head = Traits::free_link(n);
      --count;
      return n;
    }
  };

  struct alignas(kCacheLine) ThreadCache {  // owner-thread only
    Magazine loaded;
    Magazine spare;
  };

  /// Post-grace hand-back: onto the calling thread's cache. With both
  /// magazines full, the spare goes to the shared stack first.
  static void push_free(Node* n) {
    ThreadCache& c = own_cache();
    if (c.loaded.count == kMagazine) {
      if (c.spare.count == kMagazine) spill(c.spare);
      std::swap(c.loaded, c.spare);
    }
    c.loaded.push(n);
  }

  /// Move a whole magazine onto the shared stack with one CAS. A push
  /// has no ABA hazard: the CAS only checks that `head` is still the
  /// node the chain's tail was linked to.
  static void spill(Magazine& m) {
    Node* head = free_head().load(std::memory_order_relaxed);
    do {
      Traits::set_free_link(m.tail, head);
    } while (!free_head().compare_exchange_weak(head, m.head,
                                                std::memory_order_release,
                                                std::memory_order_relaxed));
    m = Magazine{};
  }

  // Statics live behind functions so each is cache-line padded without
  // tripping over in-class NSDMI ordering; one instance per Traits.
  static std::atomic<Node*>& free_head() noexcept {
    struct P {
      alignas(kCacheLine) std::atomic<Node*> v{nullptr};
    };
    static P p;
    return p.v;
  }
  static ThreadCache& own_cache() noexcept {
    static ThreadCache caches[kMaxThreads];
    return caches[ThreadRegistry::id()];
  }
  static std::atomic<Slab*>& slab() noexcept {
    struct P {
      alignas(kCacheLine) std::atomic<Slab*> v{nullptr};
    };
    static P p;
    return p.v;
  }
  static std::atomic<Slab*>& slabs_all() noexcept {
    static std::atomic<Slab*> v{nullptr};
    return v;
  }
  static std::atomic<std::size_t>& carved() noexcept {
    static std::atomic<std::size_t> v{0};
    return v;
  }
};

}  // namespace lfbt::reclaim
