// Workbench: run an ad-hoc workload against any shipped structure from
// the command line.
//
//   workbench [--mem-stats] [--pin] [--batch <n>] [--rate <ops/s>]
//             [structure] [threads] [ops_per_thread]
//             [log2_universe] [insert%] [erase%] [contains%] [pred%]
//             [zipf_theta] [shards] [succ%] [scan%] [scan_span]
//
//   --mem-stats: append the reclamation picture after the run — one row
//                per pooled memory class (reclaim/mem_stats.hpp) with
//                reserved bytes, live objects and the recycle rate.
//   --pin:       pin worker t to the t-th CPU of the placement order
//                (serve/pinning.hpp: distinct physical cores first).
//   --batch <n>: run the SERVICE panel — ops flow through a per-thread
//                BatchBuffer of capacity n (serve/batch.hpp) instead of
//                direct calls. n == 1 is the direct baseline.
//   --rate <r>:  offered load for the service panel, total ops/second
//                across threads, Poisson arrivals (serve/open_loop.hpp).
//                0 (the default) removes the rate cap: the generators run
//                flat out and the panel reports batched-path saturation.
//                --rate without --batch uses the default batch capacity.
//
//   structure: lockfree-trie | sharded-trie | relaxed-trie | skiplist |
//              harris | coarse | rwlock | cow | versioned | compressed |
//              enc-u64-trie | enc-u64-compressed | enc-str-trie
//
// The enc-* structures run the workload through the key-encoding layer
// (src/keys/): every op converts its dense key to a typed key
// (uint64_t or std::string), encodes it back through KeyCodec, and
// drives the named inner structure — the full codec round trip under
// whatever mix you dial in. `compressed` is the raw path-compressed
// trie (keys/compressed_trie.hpp).
//
// The six percentages must sum to 100. Every structure here carries the
// full traversal surface (succ%/scan%) — the core trie answers successor
// natively. The service panel
// converts range scans to predecessor queries (the batch facade is a
// point-op front door).
//
// Examples:
//   workbench lockfree-trie 8 100000 16 50 50 0 0
//   workbench lockfree-trie 4 200000 16 20 20 0 0 0 0 30 30 64
//   workbench sharded-trie 8 100000 20 50 50 0 0 0 16
//   workbench --pin --batch 256 --rate 2000000 sharded-trie 8 100000 20 50 50 0 0
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "baselines/cow_universal.hpp"
#include "baselines/harris_set.hpp"
#include "baselines/lf_skiplist.hpp"
#include "baselines/locked_trie.hpp"
#include "baselines/versioned_trie.hpp"
#include "core/lockfree_trie.hpp"
#include "keys/compressed_trie.hpp"
#include "keys/encoded_set.hpp"
#include "reclaim/mem_stats.hpp"
#include "relaxed/relaxed_trie.hpp"
#include "serve/open_loop.hpp"
#include "shard/sharded_trie.hpp"
#include "workload/harness.hpp"

namespace {

bool g_mem_stats = false;
// Service-panel knobs; the panel runs when either is set.
long g_batch = 0;
double g_rate = 0.0;

void print_mem_stats() {
  const lfbt::MemStats::Snapshot snap = lfbt::Stats::memory();
  std::printf("\nmemory classes (process-wide pools, reclaim/mem_stats.hpp):\n");
  std::printf("  %-12s %12s %12s %12s %9s %9s\n", "class", "reserved KiB",
              "acquired", "in_use", "released", "recycle");
  for (int i = 0; i < lfbt::kNumMemClasses; ++i) {
    const auto& c = snap.cls[i];
    const double recycle =
        c.acquired == 0 ? 0.0 : 100.0 * double(c.recycled) / double(c.acquired);
    std::printf("  %-12s %12.1f %12llu %12llu %9llu %8.1f%%\n",
                lfbt::kMemClassNames[i], double(c.bytes_reserved) / 1024.0,
                static_cast<unsigned long long>(c.acquired),
                static_cast<unsigned long long>(c.in_use()),
                static_cast<unsigned long long>(c.released), recycle);
  }
  std::printf("  total reserved   : %.1f KiB\n",
              double(snap.total_reserved()) / 1024.0);
}

/// Service panel: open-loop Poisson traffic through the batched front
/// door, reporting achieved rate and sojourn (queue wait + drain) tails.
template <class Set>
int run_service(const lfbt::BenchConfig& cfg, const char* name) {
  lfbt::serve::OpenLoopConfig scfg;
  scfg.rate_ops_s = g_rate;
  scfg.threads = cfg.threads;
  scfg.ops_per_thread = cfg.ops_per_thread;
  scfg.batch = g_batch > 0 ? static_cast<std::size_t>(g_batch)
                           : lfbt::serve::kDefaultBatch;
  scfg.pin = cfg.pin;
  lfbt::Stats::reset();
  auto set = lfbt::make_set<Set>(cfg);
  lfbt::prefill(*set, cfg);
  const auto res = lfbt::serve::run_open_loop(*set, cfg, scfg);
  std::printf("structure        : %s (service panel)\n", name);
  std::printf("threads          : %d%s\n", scfg.threads,
              scfg.pin ? " (pinned)" : "");
  std::printf("batch capacity   : %zu%s\n", scfg.batch,
              scfg.batch <= 1 ? " (direct baseline)" : "");
  if (g_rate > 0) {
    std::printf("offered rate     : %.3f Mops/s\n", res.offered_mops);
  } else {
    std::printf("offered rate     : uncapped (saturation)\n");
  }
  std::printf("achieved rate    : %.3f Mops/s\n", res.achieved_mops);
  std::printf("total ops        : %lu\n",
              static_cast<unsigned long>(res.total_ops));
  std::printf("sojourn p50      : %.1f us\n", res.sojourn_pct(0.50) / 1e3);
  std::printf("sojourn p95      : %.1f us\n", res.sojourn_pct(0.95) / 1e3);
  std::printf("sojourn p99      : %.1f us\n", res.sojourn_pct(0.99) / 1e3);
  if (res.batch_flushes > 0) {
    std::printf("drains           : %lu (%.1f ops/drain, %.1f%% coalesced)\n",
                static_cast<unsigned long>(res.batch_flushes),
                double(res.total_ops) / double(res.batch_flushes),
                100.0 * double(res.batch_coalesced) / double(res.total_ops));
  }
  if (g_mem_stats) print_mem_stats();
  return 0;
}

template <class Set>
int run(const lfbt::BenchConfig& cfg, const char* name) {
  if (cfg.mix.has_traversal() && !lfbt::TraversableOrderedSet<Set>) {
    std::fprintf(stderr,
                 "%s has no successor/range_scan surface; drop succ%%/scan%%\n",
                 name);
    return 2;
  }
  if (g_batch > 0 || g_rate > 0) return run_service<Set>(cfg, name);
  lfbt::Stats::reset();
  auto res = lfbt::bench_fresh<Set>(cfg);
  std::printf("structure        : %s\n", name);
  std::printf("threads          : %d\n", cfg.threads);
  std::printf("universe         : %ld\n", static_cast<long>(cfg.universe));
  std::printf("mix              : %s\n", cfg.mix.name().c_str());
  std::printf("zipf theta       : %.2f\n", cfg.zipf_theta);
  std::printf("total ops        : %lu\n", static_cast<unsigned long>(res.total_ops));
  std::printf("elapsed          : %.3f s\n", res.elapsed_sec);
  std::printf("throughput       : %.3f Mops/s\n", res.mops_per_sec);
  if (res.steps.scan_ops > 0) {
    std::printf("range scans      : %lu (%.2f keys/scan, span %ld)\n",
                static_cast<unsigned long>(res.steps.scan_ops),
                double(res.steps.scan_keys) / double(res.steps.scan_ops),
                static_cast<long>(cfg.scan_span));
  }
  if (res.steps.total() > 0) {
    std::printf("reads/op         : %.2f\n",
                double(res.steps.reads) / double(res.total_ops));
    std::printf("cas/op           : %.2f\n",
                double(res.steps.cas_attempts) / double(res.total_ops));
    std::printf("cas success rate : %.1f%%\n",
                100.0 * double(res.steps.cas_successes) /
                    double(res.steps.cas_attempts ? res.steps.cas_attempts : 1));
    std::printf("minwrites/op     : %.3f\n",
                double(res.steps.min_writes) / double(res.total_ops));
  }
  if (g_mem_stats) print_mem_stats();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lfbt;
  // Strip flags out of argv so the positional parse below stays simple;
  // flags may appear anywhere.
  bool pin = false;
  int n = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mem-stats") == 0) {
      g_mem_stats = true;
    } else if (std::strcmp(argv[i], "--pin") == 0) {
      pin = true;
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      g_batch = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
      g_rate = std::atof(argv[++i]);
    } else {
      argv[n++] = argv[i];
    }
  }
  argc = n;
  std::string structure = argc > 1 ? argv[1] : "lockfree-trie";
  BenchConfig cfg;
  cfg.pin = pin;
  cfg.threads = argc > 2 ? std::atoi(argv[2]) : 4;
  cfg.ops_per_thread = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 100000;
  cfg.universe = Key{1} << (argc > 4 ? std::atoi(argv[4]) : 16);
  cfg.mix.insert_pct = argc > 5 ? std::atoi(argv[5]) : 25;
  cfg.mix.erase_pct = argc > 6 ? std::atoi(argv[6]) : 25;
  cfg.mix.contains_pct = argc > 7 ? std::atoi(argv[7]) : 25;
  cfg.mix.predecessor_pct = argc > 8 ? std::atoi(argv[8]) : 25;
  cfg.zipf_theta = argc > 9 ? std::atof(argv[9]) : 0.0;
  cfg.shards = argc > 10 ? std::atoi(argv[10]) : 0;
  cfg.mix.successor_pct = argc > 11 ? std::atoi(argv[11]) : 0;
  cfg.mix.range_pct = argc > 12 ? std::atoi(argv[12]) : 0;
  cfg.scan_span = argc > 13 ? std::atoi(argv[13]) : 64;
  cfg.scan_limit = static_cast<uint32_t>(cfg.scan_span);
  if (cfg.mix.sum() != 100) {
    std::fprintf(stderr, "op mix must sum to 100 (got %d)\n", cfg.mix.sum());
    return 2;
  }

  if (structure == "lockfree-trie") return run<LockFreeBinaryTrie>(cfg, "lockfree-trie");
  if (structure == "sharded-trie") return run<ShardedTrie>(cfg, "sharded-trie");
  if (structure == "relaxed-trie") return run<RelaxedBinaryTrie>(cfg, "relaxed-trie");
  if (structure == "skiplist") return run<LockFreeSkipList>(cfg, "skiplist");
  if (structure == "harris") return run<HarrisSet>(cfg, "harris");
  if (structure == "coarse") return run<CoarseLockTrie>(cfg, "coarse");
  if (structure == "rwlock") return run<RwLockTrie>(cfg, "rwlock");
  if (structure == "cow") return run<CowUniversalSet>(cfg, "cow");
  if (structure == "versioned") return run<VersionedTrie>(cfg, "versioned");
  if (structure == "compressed") return run<CompressedBitTrie>(cfg, "compressed");
  if (structure == "enc-u64-trie") {
    return run<keys::KeyspaceView<uint64_t, LockFreeBinaryTrie>>(
        cfg, "enc-u64-trie");
  }
  if (structure == "enc-u64-compressed") {
    return run<keys::KeyspaceView<uint64_t, CompressedBitTrie>>(
        cfg, "enc-u64-compressed");
  }
  if (structure == "enc-str-trie") {
    return run<keys::KeyspaceView<std::string, LockFreeBinaryTrie>>(
        cfg, "enc-str-trie");
  }
  std::fprintf(stderr,
               "unknown structure '%s' (try: lockfree-trie sharded-trie "
               "relaxed-trie skiplist harris coarse rwlock cow versioned "
               "compressed enc-u64-trie enc-u64-compressed enc-str-trie)\n",
               structure.c_str());
  return 2;
}
