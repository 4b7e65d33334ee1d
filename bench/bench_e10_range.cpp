// E10: ordered traversal — successor and bounded range-scan throughput
// across scan-window width × threads × key distributions × structures.
//
// Subsystem claims under test (the query surface):
//  * the native symmetric successor answers at predecessor cost — the
//    same announcement machinery reflected through the key order — so
//    LockFreeBinaryTrie/ShardedTrie traversal throughput tracks their E9
//    predecessor throughput with no doubled update work;
//  * ShardedTrie range scans touch only the shards a window intersects
//    (plus the O(1) empty-shard skip), so for windows narrower than a
//    shard the scan cost is independent of S, while successor pays the
//    cross-shard validation exactly like predecessor;
//  * wider scan windows amortise positioning cost: keys/s rises with the
//    window while scans/s falls — reported via the scan_ops/scan_keys
//    step counters.
//
// Rows are printed as markdown tables and recorded to BENCH_E10.json for
// CI archiving/diffing (same shape as BENCH_E9.json plus span/scan
// fields).
#include "baselines/lf_skiplist.hpp"
#include "baselines/locked_trie.hpp"
#include "bench_util.hpp"
#include "core/lockfree_trie.hpp"
#include "shard/sharded_trie.hpp"

namespace lfbt {
namespace {

bench::JsonRows g_json;

const char* dist_name(const BenchConfig& cfg) {
  if (cfg.cluster_width > 0) return "clustered";
  if (cfg.zipf_theta > 0.0) return "zipf0.99";
  return "uniform";
}

template <class Set>
void run_cell(const char* name, const BenchConfig& base, int threads,
              Key span, uint64_t total_ops) {
  BenchConfig cfg = base;
  cfg.threads = threads;
  cfg.scan_span = span;
  cfg.scan_limit = static_cast<uint32_t>(span);
  cfg.ops_per_thread = bench::scaled(total_ops) / static_cast<uint64_t>(threads);
  Stats::reset();
  auto res = bench_fresh<Set>(cfg);
  const double keys_per_scan =
      res.steps.scan_ops > 0
          ? double(res.steps.scan_keys) / double(res.steps.scan_ops)
          : 0.0;
  bench::row(bench::fmt("| %-13s | %4lld | %2d | %-9s | %9.3f | %10.2f |",
                        name, static_cast<long long>(span), threads,
                        dist_name(cfg), res.mops_per_sec, keys_per_scan));
  const int shards = ShardedOrderedSet<Set> ? cfg.shards : 0;
  g_json.add_scan_result(name, shards, threads, cfg.mix, dist_name(cfg), span,
                         res);
}

void run_row_set(const BenchConfig& base, int threads, Key span,
                 uint64_t total_ops) {
  run_cell<ShardedTrie>("sharded-trie", base, threads, span, total_ops);
  run_cell<LockFreeBinaryTrie>("lockfree-trie", base, threads, span, total_ops);
  run_cell<LockFreeSkipList>("skiplist", base, threads, span, total_ops);
  run_cell<RwLockTrie>("rwlock", base, threads, span, total_ops);
}

void table_header(const char* title) {
  bench::row(bench::fmt("### %s", title));
  bench::row("| structure     | span | th | dist      |  Mops/s   | keys/scan  |");
  bench::row("|---------------|------|----|-----------|-----------|------------|");
}

}  // namespace
}  // namespace lfbt

int main() {
  using namespace lfbt;
  bench::header(
      "E10: ordered traversal — successor + bounded range scans",
      "the native symmetric successor prices successor at predecessor cost, "
      "and sharded scans touch only the shards a window intersects");

  BenchConfig base;
  base.universe = Key{1} << 20;
  base.prefill_keys = 1 << 15;
  base.shards = 8;
  const uint64_t total_ops = 200000;

  // Scan-heavy mix: window width sweep at fixed threads (2, so the CI
  // smoke cap still exercises the headline table).
  base.mix = kScanHeavy;
  table_header("scan-heavy (i10/d10/r80), span sweep, 2 threads, uniform");
  for (Key span : {16, 64, 256, 1024}) {
    if (!bench::threads_allowed(2)) break;
    run_row_set(base, 2, span, total_ops);
  }
  bench::row("");

  // Thread sweep at span 64.
  table_header("scan-heavy (i10/d10/r80), thread sweep, span 64, uniform");
  for (int threads : {1, 2, 4, 8}) {
    if (!bench::threads_allowed(threads)) continue;
    run_row_set(base, threads, 64, total_ops);
  }
  bench::row("");

  // Distribution sweep: skew and clustering at span 64, 2 threads.
  if (bench::threads_allowed(2)) {
    table_header("scan-heavy (i10/d10/r80), distribution sweep, span 64");
    run_row_set(base, 2, 64, total_ops);
    base.zipf_theta = 0.99;
    run_row_set(base, 2, 64, total_ops);
    base.zipf_theta = 0.0;
    base.cluster_width = 1 << 12;  // whole workload inside one shard
    run_row_set(base, 2, 64, total_ops);
    base.cluster_width = 0;
    bench::row("");
  }

  // Successor-heavy mix: point traversal without scan amortisation.
  base.mix = kSuccHeavy;
  table_header("successor-heavy (i20/d20/S60), thread sweep, uniform");
  for (int threads : {1, 2, 4, 8}) {
    if (!bench::threads_allowed(threads)) continue;
    run_row_set(base, threads, 64, total_ops);
  }
  bench::row("");

  // Mixed traversal: all six op kinds at once (the facade's full surface).
  base.mix = kTraversalMix;
  table_header("mixed (i15/d15/s10/p20/S20/r20), thread sweep, span 64");
  for (int threads : {1, 2, 4, 8}) {
    if (!bench::threads_allowed(threads)) continue;
    run_row_set(base, threads, 64, total_ops);
  }
  bench::row("");

  return g_json.write("BENCH_E10.json") ? 0 : 1;
}
