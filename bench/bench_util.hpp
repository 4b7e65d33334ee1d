// Shared support for the experiment benches (E1..E9): markdown-style table
// output, machine-readable JSON result files, and global scale knobs.
//
// Each bench regenerates one experiment (see README.md's experiment index)
// and prints self-describing markdown rows. Environment knobs:
//   LFBT_BENCH_SCALE       (float, default 1.0) multiplies op counts for
//                          slower/faster hosts;
//   LFBT_BENCH_MAX_THREADS (int, default unlimited) caps the thread counts
//                          a bench sweeps — CI smoke runs set this to 2.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "workload/harness.hpp"

namespace lfbt::bench {

inline double scale() {
  static const double s = [] {
    const char* env = std::getenv("LFBT_BENCH_SCALE");
    return env != nullptr ? std::atof(env) : 1.0;
  }();
  return s <= 0 ? 1.0 : s;
}

inline uint64_t scaled(uint64_t ops) {
  auto v = static_cast<uint64_t>(double(ops) * scale());
  return v == 0 ? 1 : v;
}

inline int max_threads() {
  static const int m = [] {
    const char* env = std::getenv("LFBT_BENCH_MAX_THREADS");
    return env != nullptr ? std::atoi(env) : 0;
  }();
  return m;
}

/// True iff a sweep should include this thread count under the CI cap.
inline bool threads_allowed(int threads) {
  return max_threads() <= 0 || threads <= max_threads();
}

inline void header(const char* experiment, const char* claim) {
  std::printf("\n## %s\n", experiment);
  std::printf("claim under test: %s\n\n", claim);
}

inline void row(const std::string& s) { std::printf("%s\n", s.c_str()); }

template <class... Args>
std::string fmt(const char* f, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), f, args...);
  return buf;
}

/// Accumulates one JSON object per benchmark configuration and writes them
/// as a JSON array, so CI can archive/diff machine-readable results
/// alongside the printed markdown tables (e.g. BENCH_E9.json).
class JsonRows {
 public:
  /// `obj` must be a complete JSON object, e.g. built with bench::fmt.
  void add(std::string obj) { rows_.push_back(std::move(obj)); }

  /// One standard record shape for harness results.
  void add_result(const char* structure, int shards, int threads,
                  const OpMix& mix, const char* dist, const BenchResult& r) {
    add(fmt("{\"structure\":\"%s\",\"shards\":%d,\"threads\":%d,"
            "\"mix\":\"%s\",\"dist\":\"%s\",\"total_ops\":%llu,"
            "\"elapsed_sec\":%.6f,\"mops_per_sec\":%.4f}",
            structure, shards, threads, mix.name().c_str(), dist,
            static_cast<unsigned long long>(r.total_ops), r.elapsed_sec,
            r.mops_per_sec));
  }

  /// Record shape for traversal workloads (E10): adds the scan-window
  /// width and the scan counters the harness collected via StepCounts.
  void add_scan_result(const char* structure, int shards, int threads,
                       const OpMix& mix, const char* dist, Key span,
                       const BenchResult& r) {
    add(fmt("{\"structure\":\"%s\",\"shards\":%d,\"threads\":%d,"
            "\"mix\":\"%s\",\"dist\":\"%s\",\"span\":%lld,"
            "\"total_ops\":%llu,\"elapsed_sec\":%.6f,\"mops_per_sec\":%.4f,"
            "\"scan_ops\":%llu,\"scan_keys\":%llu}",
            structure, shards, threads, mix.name().c_str(), dist,
            static_cast<long long>(span),
            static_cast<unsigned long long>(r.total_ops), r.elapsed_sec,
            r.mops_per_sec,
            static_cast<unsigned long long>(r.steps.scan_ops),
            static_cast<unsigned long long>(r.steps.scan_keys)));
  }

  /// Returns false (and says why on stderr) on any open/write failure, so
  /// callers can fail a CI run instead of archiving a truncated artifact.
  bool write(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path);
      return false;
    }
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "  %s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    const bool ok = std::ferror(f) == 0;
    if (std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "write to %s failed or was truncated\n", path);
      return false;
    }
    std::printf("wrote %zu result rows to %s\n", rows_.size(), path);
    return true;
  }

 private:
  std::vector<std::string> rows_;
};

}  // namespace lfbt::bench
