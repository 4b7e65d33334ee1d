// Process-wide registry handing out small dense thread ids.
//
// Lock-free structures need a bounded per-thread slot (arena chunks, EBR
// epochs, stats, pool caches). Slots are recycled when threads exit, so
// long test runs that spawn thousands of short-lived threads stay within
// kMaxThreads concurrently-live slots. Per-slot state is NOT reset at
// exit: the next thread to claim the slot inherits it (its EBR limbo, its
// pool caches, its counters). The slot release is a release store and the
// claim an acq_rel CAS, so the new owner sees everything the old one
// wrote.
//
// id() is on every hot path (each guard, pool pop/push and counter bump
// asks for it), so its fast path is inline: one read of a constinit
// thread_local, which needs no TLS init wrapper. Only the first call on a
// thread leaves the header, to claim a slot and arm its release at thread
// exit.
//
// Layout note (E16 false-sharing audit): the claim words are
// PaddedAtomic<bool>, one cache line each — a slot claim/release CAS by
// a starting/exiting thread must not invalidate the line under a
// neighbouring slot's CAS. Registration is cold (once per thread
// lifetime), so this is cheap insurance rather than a measured win; the
// hot per-thread words that DID measure — the EBR announce epochs that
// adjoined the owner-mutated limbo vectors — are padded in sync/ebr.cpp
// (see g_announce there for the E16 numbers).
#pragma once

#include <atomic>
#include <cstdint>

namespace lfbt {

inline constexpr int kMaxThreads = 256;

class ThreadRegistry {
 public:
  /// Dense id of the calling thread in [0, kMaxThreads). Registers lazily.
  static int id() noexcept {
    const int s = slot_;
    return s >= 0 ? s : register_thread();
  }

  /// Number of slots ever claimed simultaneously (upper bound on live ids).
  static int high_water();

 private:
  friend struct ThreadSlotReleaser;
  static int register_thread() noexcept;
  static void release(int id);

  // The calling thread's slot, or -1 before its first id().
  static inline constinit thread_local int slot_ = -1;
};

}  // namespace lfbt
