// Epoch-based memory reclamation (EBR).
//
// Classic three-epoch scheme (Fraser): threads enter a read-side critical
// section by publishing the global epoch; retired nodes are stamped with
// the epoch at retirement and freed once every in-critical-section thread
// has observed a later epoch (two epoch advances = grace period).
//
// Used by the baseline lock-free structures (skip list, Harris list,
// copy-on-write universal set) to run with bounded memory, and by the
// trie's query-node recycling pool (QueryNodePool, lists/pall.hpp):
// every trie operation that touches the P-ALL holds a Guard, and retired
// query announcement nodes rejoin the pool after a grace period. The
// trie's update nodes and cells still use the per-structure arena
// instead (see README.md) because the paper's algorithm keeps long-lived
// references to logically retired nodes.
//
// Layout note (E16 false-sharing audit): per-thread announce words are a
// PaddedAtomic array separate from the owner-only limbo state — see the
// comment on g_announce in ebr.cpp for the measured delta and the
// structural argument.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "sync/cacheline.hpp"
#include "sync/thread_registry.hpp"

namespace lfbt::ebr {

/// RAII read-side critical section. Nested guards are supported. Entering
/// an outermost guard while the calling thread's limbo is over a soft cap
/// and cannot be swept sleeps once, briefly (backpressure; see ebr.cpp).
class Guard {
 public:
  Guard();
  ~Guard();
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;
};

/// Defers `deleter(ptr)` until no guard that predates this call is live.
void retire(void* ptr, void (*deleter)(void*));

template <class T>
void retire(T* ptr) {
  retire(ptr, [](void* p) { delete static_cast<T*>(p); });
}

/// Best-effort: advance epochs and free what is safe. Called automatically
/// every few retirements; exposed for tests and shutdown.
void collect();

/// Blocks until every guard that was live at the call has been released
/// (one full grace period), by retiring a token and spinning collect()
/// until its deleter runs. The caller must NOT hold a Guard — its own
/// pinned epoch would make the wait infinite. Control-plane use only
/// (resharding migration windows, shard/sharded_trie.hpp); data-plane
/// operations never call this, so structure lock-freedom is unaffected.
void synchronize();

/// Frees everything unconditionally. Only call when no concurrent guards
/// exist (e.g. test teardown after joining all threads).
void drain_unsafe();

/// Number of nodes currently awaiting reclamation: the sum of the
/// per-thread limbo counts. Approximate while other threads retire; exact
/// once they have joined.
std::size_t pending();

}  // namespace lfbt::ebr
