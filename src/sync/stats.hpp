// Cheap per-thread operation-step counters, compile-time toggleable.
//
// Used by experiment E5 to validate the paper's amortized step-complexity
// claims: we count shared-memory reads, CAS attempts, successful CASes and
// min-writes performed inside trie operations, plus the query-path
// accounting (fused-helper invocations and query-node allocations).
// Counting is thread-local (no synchronisation on the hot path) and
// aggregated on demand.
//
// Toggle: building with -DLFBT_STATS_DISABLED=1 (CMake: -DTRIE_STATS=OFF)
// compiles every count_* call to nothing, so release benches measure the
// algorithm rather than a thread-local increment per pointer chase. The
// StepCounts type and the Stats API stay available in both configurations
// (aggregate() just reports zeros when disabled); counter-asserting tests
// gate themselves on Stats::enabled().
// Memory accounting (always-on, unlike the step counters) lives in
// reclaim/mem_stats.hpp and is re-exported here through Stats::memory()
// so harnesses have a single stats entry point.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "reclaim/mem_stats.hpp"
#include "sync/cacheline.hpp"
#include "sync/thread_registry.hpp"

#if defined(LFBT_STATS_DISABLED) && LFBT_STATS_DISABLED
#define LFBT_STATS_ENABLED 0
#else
#define LFBT_STATS_ENABLED 1
#endif

namespace lfbt {

struct StepCounts {
  uint64_t reads = 0;
  uint64_t cas_attempts = 0;
  uint64_t cas_successes = 0;
  uint64_t min_writes = 0;
  uint64_t helps = 0;        // HelpActivate invocations that did work
  uint64_t trie_restarts = 0;
  // Ordered-traversal workload counters (harness-level, not memory
  // steps): range scans executed and keys they returned — E10 reports
  // keys/scan and scanned-keys/s from the same StepCounts delta the
  // other experiments already use.
  uint64_t scan_ops = 0;
  uint64_t scan_keys = 0;
  // Validated-scan accounting (E15 / the atomic-scan torture tests):
  // scans whose kept walk validated as atomic, walks discarded because an
  // update epoch moved mid-walk, and scans that exhausted their retry
  // budget and kept a per-step walk (atomic == false).
  uint64_t atomic_scans = 0;
  uint64_t scan_retries = 0;
  uint64_t scan_fallbacks = 0;
  // Query-path accounting (the fused-delete acceptance test):
  // every query-helper invocation, the subset announced as fused
  // direction-pairs (QueryDir::kBoth), and PredecessorNode allocations
  // that missed the recycling pool (helpers minus allocs = reuses).
  uint64_t query_helpers = 0;
  uint64_t fused_queries = 0;
  uint64_t query_node_allocs = 0;
  // Service-facade accounting (E16 / serve/batch.hpp): drains executed,
  // ops drained through them, and ops the coalescing pass retired
  // without touching the structure (same-key updates superseded within a
  // query-free segment). coalesced/ops is the announcement-traffic
  // saving the batched front door buys.
  uint64_t batch_flushes = 0;
  uint64_t batch_ops = 0;
  uint64_t batch_coalesced = 0;

  // Every field above is one uint64_t counter, so += and - walk the
  // struct as an array (defined below, once the size is known): adding a
  // counter takes its field and its count_* function, nothing else.
  StepCounts& operator+=(const StepCounts& o) noexcept;
  StepCounts operator-(const StepCounts& o) const noexcept;
  uint64_t total() const noexcept {
    return reads + cas_attempts + min_writes;
  }
};

static_assert(std::has_unique_object_representations_v<StepCounts> &&
                  sizeof(StepCounts) % sizeof(uint64_t) == 0,
              "StepCounts must hold only uint64_t counters");

namespace detail {
using StepArray = std::array<uint64_t, sizeof(StepCounts) / sizeof(uint64_t)>;
}  // namespace detail

inline StepCounts& StepCounts::operator+=(const StepCounts& o) noexcept {
  auto a = std::bit_cast<detail::StepArray>(*this);
  const auto b = std::bit_cast<detail::StepArray>(o);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  return *this = std::bit_cast<StepCounts>(a);
}

inline StepCounts StepCounts::operator-(const StepCounts& o) const noexcept {
  auto a = std::bit_cast<detail::StepArray>(*this);
  const auto b = std::bit_cast<detail::StepArray>(o);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
  return std::bit_cast<StepCounts>(a);
}

class Stats {
 public:
  /// True iff the instrumentation is compiled in. Counter-asserting tests
  /// GTEST_SKIP on !enabled() so a -DTRIE_STATS=OFF build still passes.
  static constexpr bool enabled() { return LFBT_STATS_ENABLED != 0; }

  /// Process-wide memory-class counters (pool/arena bytes, recycle hit
  /// rates). Always on, independent of the TRIE_STATS toggle — CI's soak
  /// smoke test reads these from a release build.
  static MemStats::Snapshot memory() { return MemStats::snapshot_all(); }

#if LFBT_STATS_ENABLED
  static StepCounts& local() { return slots_[ThreadRegistry::id()].value; }
#else
  // Instrumentation compiled out: readers observe a stable all-zero
  // StepCounts, and every count_* below discards its body at compile time.
  static StepCounts& local() {
    static thread_local StepCounts dummy{};
    dummy = StepCounts{};
    return dummy;
  }
#endif

  static void count_read(uint64_t n = 1) {
    if constexpr (enabled()) local().reads += n;
  }
  static void count_cas(bool success) {
    if constexpr (enabled()) {
      auto& s = local();
      ++s.cas_attempts;
      s.cas_successes += success;
    }
  }
  static void count_min_write() {
    if constexpr (enabled()) ++local().min_writes;
  }
  static void count_help() {
    if constexpr (enabled()) ++local().helps;
  }
  static void count_scan(uint64_t keys) {
    if constexpr (enabled()) {
      auto& s = local();
      ++s.scan_ops;
      s.scan_keys += keys;
    }
  }
  static void count_scan_atomic() {
    if constexpr (enabled()) ++local().atomic_scans;
  }
  static void count_scan_retry() {
    if constexpr (enabled()) ++local().scan_retries;
  }
  static void count_scan_fallback() {
    if constexpr (enabled()) ++local().scan_fallbacks;
  }
  static void count_query_helper(bool fused) {
    if constexpr (enabled()) {
      auto& s = local();
      ++s.query_helpers;
      if (fused) ++s.fused_queries;
    }
  }
  static void count_query_node_alloc() {
    if constexpr (enabled()) ++local().query_node_allocs;
  }
  static void count_batch_flush(uint64_t ops, uint64_t coalesced) {
    if constexpr (enabled()) {
      auto& s = local();
      ++s.batch_flushes;
      s.batch_ops += ops;
      s.batch_coalesced += coalesced;
    }
  }

  /// Sum over all thread slots. Safe to call while threads run (values are
  /// monotone; the result is a consistent-enough snapshot for reporting).
  static StepCounts aggregate() {
    StepCounts total;
#if LFBT_STATS_ENABLED
    for (const auto& s : slots_) total += s.value;
#endif
    return total;
  }

  /// Zero all slots. Only call while no instrumented code runs.
  static void reset() {
#if LFBT_STATS_ENABLED
    for (auto& s : slots_) s.value = StepCounts{};
#endif
  }

#if LFBT_STATS_ENABLED
 private:
  static inline std::array<Padded<StepCounts>, kMaxThreads> slots_{};
#endif
};

}  // namespace lfbt
