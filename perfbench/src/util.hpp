// Shared helpers of the benchmark: clock, sample summaries, RSS, op
// streams generated from the seed before any timed phase, and a small
// JSON writer for the report.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <malloc.h>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "sync/random.hpp"
#include "workload/distributions.hpp"

namespace perfbench {

using lfbt::Key;
using Clock = std::chrono::steady_clock;

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline Clock::duration secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64: derives independent sub-seeds from the run's --seed.
inline uint64_t mix_seed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

enum Kind : uint8_t { kInsert, kErase, kContains, kPredecessor, kSuccessor };
inline constexpr int kKinds = 5;
inline constexpr const char* kKindNames[kKinds] = {
    "insert", "erase", "contains", "predecessor", "successor"};

/// One pre-generated op. `tag` marks the ops whose latency is recorded:
/// kSojourn samples the mix as sent; kProbe is the next kind of the
/// fixed rotation insert, erase, contains, predecessor, successor, so
/// every workload reports every kind. The probed insert and erase pair
/// up on one key the prefill left absent, so both do real work; the
/// probed queries take uniform keys.
struct Op {
  uint32_t key;
  uint8_t kind;
  uint8_t tag;
};
enum Tag : uint8_t { kPlain = 0, kSojourn = 1, kProbe = 2 };

/// Latency sampling rule, identical on every run: in each block of
/// kSampleBlock ops, op 7 is a sojourn sample and the last op a probe.
inline constexpr uint64_t kSampleBlock = 16;

/// Percent shares of the five kinds; sums to 100.
struct Mix {
  int pct[kKinds];
};

/// Generates `n` ops (n a multiple of kSampleBlock * kKinds so the probe
/// rotation wraps cleanly when a worker cycles the ring); probed inserts
/// and erases take the next of `probe_keys`.
inline std::vector<Op> make_stream(const Mix& mix, lfbt::KeyDistribution& dist,
                                   uint64_t seed, std::size_t n,
                                   std::span<const uint32_t> probe_keys) {
  lfbt::Xoshiro256 rng(seed);
  std::vector<Op> ops(n);
  uint64_t probes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Op& op = ops[i];
    op.key = static_cast<uint32_t>(dist.sample(rng));
    op.tag = kPlain;
    if (i % kSampleBlock == kSampleBlock - 1) {
      op.kind = static_cast<uint8_t>(probes % kKinds);
      if (op.kind == kInsert || op.kind == kErase) {
        op.key = probe_keys[(probes / kKinds) % probe_keys.size()];
      } else {
        op.key = static_cast<uint32_t>(rng.bounded(static_cast<uint64_t>(dist.range())));
      }
      op.tag = kProbe;
      ++probes;
      continue;
    }
    const int roll = static_cast<int>(rng.bounded(100));
    int acc = 0;
    op.kind = kKinds - 1;
    for (int k = 0; k < kKinds; ++k) {
      acc += mix.pct[k];
      if (roll < acc) {
        op.kind = static_cast<uint8_t>(k);
        break;
      }
    }
    if (i % kSampleBlock == 7) op.tag = kSojourn;
  }
  return ops;
}

/// A seeded shuffle of [0, u). Its first half, in shuffled order, is the
/// prefill: uniform, half the universe, independent of the op
/// distribution. The second half is what the prefill left absent.
inline std::vector<uint32_t> make_shuffle(Key u, uint64_t seed) {
  std::vector<uint32_t> keys(static_cast<std::size_t>(u));
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<uint32_t>(i);
  lfbt::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i + 1 < keys.size(); ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.bounded(keys.size() - i));
    std::swap(keys[i], keys[j]);
  }
  return keys;
}

/// Resident set size of this process in bytes (VmRSS), after handing
/// freed heap memory back to the OS so earlier benchmark buffers do not
/// count.
inline uint64_t rss_bytes() {
  malloc_trim(0);
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024ull;
    }
  }
  return 0;
}

/// q-quantile (nearest rank on the sorted order) of `v`; reorders `v`.
template <class T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * double(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return static_cast<double>(v[idx]);
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

inline double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Minimal ordered JSON object writer (numbers, strings, nested objects).
class JsonObj {
 public:
  JsonObj& num(const std::string& k, double v) {
    std::ostringstream s;
    s.precision(17);
    if (std::isfinite(v)) {
      s << v;
    } else {
      s << "null";
    }
    return raw(k, s.str());
  }
  JsonObj& integer(const std::string& k, uint64_t v) {
    return raw(k, std::to_string(v));
  }
  JsonObj& boolean(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  JsonObj& str(const std::string& k, const std::string& v) {
    std::string e = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') e += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      e += c;
    }
    return raw(k, e + "\"");
  }
  JsonObj& obj(const std::string& k, const JsonObj& o) { return raw(k, o.dump()); }
  JsonObj& raw(const std::string& k, const std::string& v) {
    fields_.emplace_back(k, v);
    return *this;
  }
  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Named metrics with units, in insertion order.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void set(const std::string& name, double v, const std::string& unit) {
    items.push_back({name, {v, unit}});
  }
  JsonObj json() const {
    JsonObj o;
    for (const auto& [name, vu] : items) {
      o.obj(name, JsonObj().num("value", vu.first).str("unit", vu.second));
    }
    return o;
  }
};

}  // namespace perfbench
