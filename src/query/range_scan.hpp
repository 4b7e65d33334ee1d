// Generic ordered-traversal helpers shared by the query subsystem.
//
// The repository-wide range-scan contract (modelled as a member on every
// traversable structure and checked by TraversableOrderedSet):
//
//   std::size_t range_scan(Key lo, Key hi, std::size_t limit,
//                          std::vector<Key>& out);
//
// appends to `out` at most `limit` keys of S ∩ [lo, hi] in ascending
// order and returns how many were appended. `lo` must be in [0, u);
// `hi >= lo` (values beyond u-1 are clamped). `limit` is literal — 0
// scans nothing; pass kNoScanLimit for "all of them".
//
// Consistency comes in two tiers since the atomic-scan work landed:
//
//  * range_scan (this header's weak contract, the floor every structure
//    guarantees): a sequence of linearizable steps, not one atomic
//    operation. Precisely: every reported key was in S at some instant
//    during the scan, the report is strictly ascending, and any key in
//    [lo, hi] that is in S for the entire duration of the scan is
//    reported (unless the limit cut the scan short before reaching it).
//    Keys inserted or erased while the scan runs may or may not appear
//    depending on where the cursor is.
//
//  * range_scan_validated (AtomicScanOrderedSet, shard/ordered_set.hpp):
//    the same walk bracketed by update-epoch reads. When the epochs are
//    unchanged across the walk the whole scan LINEARIZES — the report
//    equals S ∩ [lo, hi] (its lowest `limit` keys) at a single instant —
//    and the result carries atomic == true. Interference discards the
//    walk and retries, bounded by max_retries; the final walk is then
//    kept under the weak contract above with atomic == false, so callers
//    always get a per-step-correct report plus an exact flag. The
//    soundness argument (why unchanged epochs imply a single-state
//    report, and why both insert AND delete epochs are required) is in
//    docs/DESIGN.md, "Atomic scans".
//
// Structures with snapshot reads (CowUniversalSet, VersionedTrie and its
// SnapshotView), the sequential trie and the lock-holding baselines are
// atomic by construction: their range_scan_validated is
// atomic_range_scan below, which never retries and always reports
// atomic == true.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/types.hpp"
#include "sync/stats.hpp"

namespace lfbt {

/// "No limit" sentinel for range_scan's limit parameter.
inline constexpr std::size_t kNoScanLimit =
    std::numeric_limits<std::size_t>::max();

/// What one validated scan reports beyond the keys themselves. `n` is the
/// number of keys appended (the weak contract's return value); `atomic`
/// says whether the kept walk validated (the report is a single-state
/// observation); `retries` counts walks discarded on the way.
struct ScanResult {
  std::size_t n = 0;
  bool atomic = false;
  uint32_t retries = 0;
};

/// Default bound on discarded walks before range_scan_validated keeps a
/// per-step walk and reports atomic == false. Small on purpose: each
/// retry re-walks the window, and a workload hot enough to invalidate
/// eight walks in a row is one where the caller should prefer the
/// SnapshotView mode anyway.
inline constexpr uint32_t kDefaultScanRetries = 8;

/// Anything with a successor query over Key (the traversal half of the
/// ordered-set API; the successor-only MirroredTrie oracle models this
/// without being an OrderedSet).
template <class S>
concept SuccessorQueryable = requires(S s, Key y) {
  { s.successor(y) } -> std::convertible_to<Key>;
};

/// The default range-scan body: a successor walk. One linearizable
/// successor step per reported key (plus one to detect the end), so the
/// weak-consistency contract above holds whenever `successor` is
/// linearizable. The single shared implementation of the walk — the
/// core trie's range_scan member delegates here.
template <SuccessorQueryable S>
std::size_t successor_range_scan(S& set, Key lo, Key hi, std::size_t limit,
                                 std::vector<Key>& out) {
  assert(lo >= 0 && hi >= lo);
  std::size_t n = 0;
  Key k = set.successor(lo - 1);
  while (n < limit && k != kNoKey && k <= hi) {
    out.push_back(k);
    ++n;
    k = set.successor(k);
  }
  return n;
}

/// The single-epoch validated scan: the successor walk above bracketed by
/// reads of one monotone update-epoch counter (`epoch` is any callable
/// returning it). An unchanged epoch across the walk means no update that
/// overlapped the walk has RETURNED by the post-read — every such update
/// is pairwise concurrent with the scan and with each other (a completed
/// one would have bumped before returning), so a linearization exists
/// that places the scan at a single state matching the report exactly.
/// Used by LockFreeBinaryTrie (one counter per structure); ShardedTrie
/// has its own multi-entry variant over the per-shard epoch pairs.
template <SuccessorQueryable S, class EpochFn>
ScanResult epoch_validated_scan(S& set, EpochFn&& epoch, Key lo, Key hi,
                                std::size_t limit, std::vector<Key>& out,
                                uint32_t max_retries = kDefaultScanRetries) {
  const std::size_t base = out.size();
  ScanResult r;
  for (;;) {
    const uint64_t e0 = epoch();
    r.n = successor_range_scan(set, lo, hi, limit, out);
    if (epoch() == e0) {
      r.atomic = true;
      Stats::count_scan_atomic();
      return r;
    }
    if (r.retries >= max_retries) {
      // Keep the last walk: it is exactly a per-step scan under the weak
      // contract, just honestly flagged.
      Stats::count_scan_fallback();
      return r;
    }
    out.resize(base);
    ++r.retries;
    Stats::count_scan_retry();
  }
}

/// range_scan_validated for a structure whose range_scan is atomic by
/// construction (a snapshot walk, a walk under the structure's lock, or
/// a sequential structure): one walk, never retried, always atomic.
template <class S>
ScanResult atomic_range_scan(S& set, Key lo, Key hi, std::size_t limit,
                             std::vector<Key>& out) {
  ScanResult r;
  r.n = set.range_scan(lo, hi, limit, out);
  r.atomic = true;
  Stats::count_scan_atomic();
  return r;
}

/// Convenience wrapper returning a fresh vector (examples, tests).
template <class S>
std::vector<Key> range_scan_collect(S& set, Key lo, Key hi,
                                    std::size_t limit = kNoScanLimit) {
  std::vector<Key> out;
  set.range_scan(lo, hi, limit, out);
  return out;
}

}  // namespace lfbt
