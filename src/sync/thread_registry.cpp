#include "sync/thread_registry.hpp"

#include "sync/cacheline.hpp"

namespace lfbt {
namespace {

PaddedAtomic<bool> g_slots[kMaxThreads];
std::atomic<int> g_high_water{0};

int claim_slot() {
  for (;;) {
    for (int i = 0; i < kMaxThreads; ++i) {
      bool expected = false;
      if (!g_slots[i].value.load(std::memory_order_relaxed) &&
          g_slots[i].value.compare_exchange_strong(expected, true,
                                                   std::memory_order_acq_rel)) {
        int hw = g_high_water.load(std::memory_order_relaxed);
        while (hw < i + 1 &&
               !g_high_water.compare_exchange_weak(hw, i + 1,
                                                   std::memory_order_relaxed)) {
        }
        return i;
      }
    }
    // All kMaxThreads slots busy: extremely unlikely; spin until one frees.
  }
}

}  // namespace

struct ThreadSlotReleaser {
  int id = -1;
  ~ThreadSlotReleaser() {
    if (id >= 0) ThreadRegistry::release(id);
  }
};

namespace {
thread_local ThreadSlotReleaser t_slot;
}

int ThreadRegistry::register_thread() noexcept {
  // First touch of t_slot registers its destructor: the slot is released
  // when this thread exits.
  t_slot.id = claim_slot();
  slot_ = t_slot.id;
  return slot_;
}

int ThreadRegistry::high_water() {
  return g_high_water.load(std::memory_order_relaxed);
}

void ThreadRegistry::release(int id) {
  g_slots[id].value.store(false, std::memory_order_release);
}

}  // namespace lfbt
