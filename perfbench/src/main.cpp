// The repository benchmark: three workloads against the library's public
// entry points, end-to-end metrics from an untraced run, per-layer
// metrics from a traced run (spans at template boundaries plus a
// single-threaded layer ladder), and correctness checks on every run.
//
//   perfbench_bin --workload <read-zipf|update-order|serve-ingest>
//                 --seed <n> --seconds <s> --trace <0|1> [--spans-out <f>]
//   perfbench_bin --self-test
//
// Prints one JSON object as its last line; exits non-zero when any check
// failed. perfbench/run.py builds this binary and wraps its output.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "core/lockfree_trie.hpp"
#include "keys/encoded_set.hpp"
#include "relaxed/relaxed_trie.hpp"
#include "serve/batch.hpp"
#include "shard/sharded_trie.hpp"
#include "sync/ebr.hpp"
#include "sync/stats.hpp"
#include "sync/thread_registry.hpp"
#include "timed.hpp"
#include "util.hpp"
#include "workload/distributions.hpp"

namespace perfbench {
namespace {

using lfbt::LockFreeBinaryTrie;
using lfbt::RelaxedBinaryTrie;
using lfbt::ShardedTrie;
using View = lfbt::keys::KeyspaceView<uint64_t, ShardedTrie>;
using TracedView = Timed<lfbt::keys::KeyspaceView<uint64_t, Timed<ShardedTrie>>>;

// ---- workloads ------------------------------------------------------------

enum class DistKind { kZipf, kUniform, kFlash };

struct Workload {
  const char* name;
  int log2_u;
  int threads;
  Mix mix;
  DistKind dist;
  bool open_loop;
};

constexpr Workload kWorkloads[] = {
    {"read-zipf", 16, 3, {{5, 5, 80, 10, 0}}, DistKind::kZipf, false},
    {"update-order", 20, 3, {{30, 30, 0, 20, 20}}, DistKind::kUniform, false},
    {"serve-ingest", 20, 2, {{50, 50, 0, 0, 0}}, DistKind::kFlash, true},
};

constexpr double kZipfTheta = 0.99;
constexpr Key kFlashWidth = 256;
constexpr uint64_t kFlashPeriod = uint64_t{1} << 16;
constexpr int kServeShards = 8;
constexpr std::size_t kBatch = lfbt::serve::kDefaultBatch;
constexpr auto kLinger = std::chrono::microseconds(200);
/// serve-ingest phase 1: fixed absolute offered rate, both generators.
constexpr double kServeRate = 250e3;
constexpr std::size_t kRingOps = kSampleBlock * kKinds * 16384;
constexpr std::size_t kLadderOps = 200000;
constexpr std::size_t kRelaxedReplayOps = 100000;
constexpr int kSetups = 3;
constexpr int kSegments = 10;
/// Fresh threads spin this long before their first measured op, so the
/// scheduler has spread them over the cores.
constexpr auto kSettle = std::chrono::milliseconds(50);

std::unique_ptr<lfbt::KeyDistribution> make_dist(const Workload& w) {
  const Key u = Key{1} << w.log2_u;
  switch (w.dist) {
    case DistKind::kZipf:
      return std::make_unique<lfbt::ZipfDist>(u, kZipfTheta);
    case DistKind::kFlash:
      return std::make_unique<lfbt::FlashCrowdDist>(u, kFlashWidth, kFlashPeriod);
    default:
      return std::make_unique<lfbt::UniformDist>(u);
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string spans_out;
};

// ---- measurement sinks ------------------------------------------------------

/// One thread's latency samples (time-ordered) and op counts.
struct Samples {
  std::vector<uint32_t> insert_ns, erase_ns, contains_ns, predecessor_ns, successor_ns;
  std::vector<uint32_t> sojourn_ns;
  std::vector<uint32_t> queue_wait_ns;
  std::vector<uint32_t> lag_ns;
  std::vector<uint32_t> flush_ns;
  uint64_t ops = 0;       // ops completed in the measured window
  uint64_t attempted = 0; // every op sent, warm-up included
  uint64_t failed = 0;
  uint64_t flushes = 0;
  uint64_t linger_flushes = 0;
  uint64_t submitted = 0;
  uint64_t probes = 0;
  uint64_t kind_ops[kKinds] = {};  // measured ops per kind

  void add_counts(const Samples& o) {
    ops += o.ops;
    attempted += o.attempted;
    failed += o.failed;
    flushes += o.flushes;
    linger_flushes += o.linger_flushes;
    submitted += o.submitted;
    probes += o.probes;
    for (int k = 0; k < kKinds; ++k) kind_ops[k] += o.kind_ops[k];
  }
};

using Field = std::vector<uint32_t> Samples::*;

/// Counter sums of per-thread samples.
Samples sum_counts(const std::vector<Samples>& per) {
  Samples all;
  for (const auto& s : per) all.add_counts(s);
  return all;
}

/// Median over about kWindows time windows of the q-quantile of one
/// sample field, so a stall confined to one window cannot move the value.
/// `per` holds `groups` consecutive runs of threads (segments of one
/// phase); each segment is cut into kWindows / groups time slices, and a
/// window pools one slice of every thread of its segment.
constexpr int kWindows = 10;
double windowed_quantile(const std::vector<Samples>& per, Field f, double q, int groups = 1) {
  const std::size_t threads = per.size() / static_cast<std::size_t>(groups);
  const int slices = std::max(1, kWindows / groups);
  std::vector<double> per_window;
  for (int g = 0; g < groups; ++g) {
    for (int w = 0; w < slices; ++w) {
      std::vector<uint32_t> x;
      for (std::size_t t = g * threads; t < (g + 1) * threads; ++t) {
        const std::vector<uint32_t>& v = per[t].*f;
        x.insert(x.end(), v.begin() + static_cast<std::ptrdiff_t>(v.size() * w / slices),
                 v.begin() + static_cast<std::ptrdiff_t>(v.size() * (w + 1) / slices));
      }
      if (!x.empty()) per_window.push_back(quantile(x, q));
    }
  }
  return median(per_window);
}

std::size_t sample_count(const std::vector<Samples>& per, Field f) {
  std::size_t n = 0;
  for (const auto& s : per) n += (s.*f).size();
  return n;
}

inline uint32_t clamp32(uint64_t v) {
  return static_cast<uint32_t>(std::min<uint64_t>(v, UINT32_MAX));
}

/// Main-thread sampler: with tracing on it times guard pairs and
/// ThreadRegistry::id() in short bursts and samples ebr::pending() while
/// the workers run; otherwise it only sleeps.
struct SyncSampler {
  bool on = false;
  std::vector<double> guard_ns, id_ns;
  std::vector<double> pending;

  void run_until(Clock::time_point deadline) {
    while (Clock::now() < deadline) {
      if (on) tick();
      const auto next = std::min(deadline, Clock::now() + std::chrono::milliseconds(10));
      std::this_thread::sleep_until(next);
    }
  }
  void run_while(const std::atomic<int>& running) {
    while (running.load() > 0) {
      if (on) tick();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  void tick() {
    constexpr int kBurst = 2000;
    pending.push_back(static_cast<double>(lfbt::ebr::pending()));
    uint64_t t0 = now_ns();
    for (int i = 0; i < kBurst; ++i) {
      lfbt::ebr::Guard g;
    }
    guard_ns.push_back(double(now_ns() - t0) / kBurst);
    t0 = now_ns();
    int sink = 0;
    for (int i = 0; i < kBurst; ++i) sink += lfbt::ThreadRegistry::id();
    id_ns.push_back(double(now_ns() - t0) / kBurst);
    if (sink == -1) std::fputs("", stderr);
  }
};

/// Ops completed so far by each thread. The main thread samples the sum
/// at kWindows window boundaries of the measured span; throughput is the
/// median window rate, so a stall confined to one window cannot move it.
struct Progress {
  explicit Progress(int threads) : done(threads) {}
  std::vector<lfbt::PaddedAtomic<uint64_t>> done;

  void add(int t, uint64_t n) { done[t].value.fetch_add(n, std::memory_order_relaxed); }
  uint64_t total() const {
    uint64_t n = 0;
    for (const auto& d : done) n += d.value.load(std::memory_order_relaxed);
    return n;
  }
  /// Runs the sampler through [start, start + seconds); returns Mops/s.
  double median_rate(SyncSampler& sync, Clock::time_point start, double seconds) {
    sync.run_until(start);
    std::vector<double> rates;
    uint64_t last = total();
    Clock::time_point last_t = Clock::now();
    for (int w = 1; w <= kWindows; ++w) {
      sync.run_until(start + secs(seconds * w / kWindows));
      const uint64_t n = total();
      const Clock::time_point t = Clock::now();
      rates.push_back(double(n - last) / std::chrono::duration<double>(t - last_t).count() / 1e6);
      last = n;
      last_t = t;
    }
    return median(rates);
  }
};

/// Median cost of an empty steady_clock pair; subtracted from per-op
/// ladder timings.
double clock_overhead_ns() {
  std::vector<uint64_t> v(20000);
  for (auto& x : v) {
    const uint64_t a = now_ns();
    x = now_ns() - a;
  }
  return quantile(v, 0.5);
}

// ---- run context ------------------------------------------------------------

struct Context {
  const Workload* w;
  Args args;
  Key u;
  std::vector<uint32_t> prefill;
  std::vector<std::vector<Op>> rings;  // one per worker / generator
  Metrics m;
  JsonObj samples;  // sample counts per reported distribution
  JsonObj checks;
  CheckCount total;
  SyncSampler sync;
  lfbt::StepCounts steps;            // counter delta over the measured window
  lfbt::MemStats::Snapshot mem0, mem1;
  uint64_t measured_ops = 0;
  uint64_t kind_ops[kKinds] = {};

  void count(const char* what, const CheckCount& c) {
    checks.obj(what, JsonObj().integer("attempted", c.attempted).integer("failed", c.failed));
    total += c;
  }
};

constexpr Field kKindField[kKinds] = {&Samples::insert_ns, &Samples::erase_ns,
                                      &Samples::contains_ns, &Samples::predecessor_ns,
                                      &Samples::successor_ns};

/// <name>_p50_<unit>, _p90_ and _p99_, with the sample count.
void report_latency(Context& c, const std::string& name, const std::vector<Samples>& per,
                    Field f, double scale, const std::string& unit, int groups = 1) {
  for (const auto& [tag, q] : {std::pair{"_p50_", 0.50}, {"_p90_", 0.90}, {"_p99_", 0.99}}) {
    c.m.set(name + tag + unit, windowed_quantile(per, f, q, groups) / scale, unit);
  }
  c.samples.integer(name, sample_count(per, f));
}

void report_latencies(Context& c, const std::vector<Samples>& per, int groups = 1) {
  for (int k = 0; k < kKinds; ++k) {
    report_latency(c, kKindNames[k], per, kKindField[k], 1.0, "ns", groups);
  }
  report_latency(c, "sojourn", per, &Samples::sojourn_ns, 1e3, "us", groups);
}

/// Constructs and prefills a set; returns seconds taken.
template <class S, class Make>
double timed_setup(std::unique_ptr<S>& out, Make make, const std::vector<uint32_t>& keys) {
  const auto t0 = Clock::now();
  out = make();
  for (uint32_t k : keys) out->insert(k);
  return seconds_since(t0);
}

// ---- closed loop ------------------------------------------------------------

template <class S>
void closed_loop(Context& c, S& set) {
  const int threads = c.w->threads;
  const double warm = std::min(1.0, 0.1 * c.args.seconds);
  std::vector<std::size_t> pos(threads, 0);

  // Fresh workers run the streams on from `pos`: kSettle unrecorded, then
  // `secs` recorded; returns the median window rate and their samples.
  auto segment = [&](double secs, bool record) {
    std::atomic<int> phase{0};  // 0 settle, 1 measure, 2 stop
    std::atomic<int> ready{0};
    std::vector<Samples> local(threads);
    Progress progress(threads);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const std::vector<Op>& ring = c.rings[t];
        Samples& s = local[t];
        std::size_t p = pos[t];
        ready.fetch_add(1);
        for (;;) {
          const int ph = phase.load(std::memory_order_acquire);
          if (ph == 2) break;
          const bool rec = record && ph == 1;
          for (int j = 0; j < 64; ++j) {
            const Op& op = ring[p];
            if (++p == ring.size()) p = 0;
            Key r;
            if (rec && op.tag != kPlain) {
              const uint64_t t0 = now_ns();
              r = apply(set, op);
              const uint32_t d = clamp32(now_ns() - t0);
              (s.*(op.tag == kProbe ? kKindField[op.kind] : &Samples::sojourn_ns)).push_back(d);
            } else {
              r = apply(set, op);
            }
            if (!answer_ok(op.kind, op.key, r, c.u)) ++s.failed;
            ++s.kind_ops[op.kind];
          }
          s.attempted += 64;
          s.ops += 64;
          progress.add(t, 64);
        }
        pos[t] = p;
      });
    }
    while (ready.load() != threads) std::this_thread::yield();
    const Clock::time_point t0 = Clock::now() + kSettle;
    c.sync.run_until(t0);
    phase.store(1, std::memory_order_release);
    const double mops = progress.median_rate(c.sync, t0, secs);
    phase.store(2, std::memory_order_release);
    for (auto& th : workers) th.join();
    return std::make_pair(mops, std::move(local));
  };

  // The measured span runs as kSegments segments on fresh threads, like
  // the open loop's phases, so a run pools several thread placements.
  segment(warm, false);
  c.mem0 = lfbt::Stats::memory();
  const lfbt::StepCounts s0 = lfbt::Stats::aggregate();
  std::vector<Samples> per;
  std::vector<double> rates;
  for (int k = 0; k < kSegments; ++k) {
    auto [mops, part] = segment(c.args.seconds / kSegments, true);
    rates.push_back(mops);
    for (auto& x : part) per.push_back(std::move(x));
  }
  const double mops = median(rates);
  c.steps = lfbt::Stats::aggregate() - s0;
  c.mem1 = lfbt::Stats::memory();

  const Samples all = sum_counts(per);
  c.count("invariants", {all.attempted, all.failed});
  c.m.set("throughput_mops", mops, "Mops/s");
  report_latencies(c, per, kSegments);
  c.samples.integer("measured_ops", all.ops);
  // A closed loop does not cross the serve layer.
  for (const char* name : {"serve.queue_wait_p50_us", "serve.queue_wait_p99_us",
                           "serve.flush_p50_us", "serve.flush_p99_us",
                           "serve.linger_flush_frac", "serve.generator_lag_p99_us",
                           "serve.coalesced_frac", "serve.ops_per_flush"}) {
    c.m.set(name, 0.0, std::strstr(name, "_us")           ? "us"
                       : std::strstr(name, "ops_per") ? "ops"
                                                      : "ratio");
  }
  for (int k = 0; k < kKinds; ++k) c.kind_ops[k] = all.kind_ops[k];
  c.measured_ops = all.ops;
}

// ---- open loop (serve-ingest) ------------------------------------------------

/// One generator's drive of its own BatchBuffer. Phase 1 follows the
/// pre-generated Poisson schedule `arrivals` (ns offsets, t0 standing
/// for offset `base`) and records sojourn from the scheduled arrival;
/// with `arrivals` empty it submits back-to-back until `stop` (phase 2
/// and warm-up).
template <class Stack>
void generator(Stack& view, const std::vector<Op>& ring, std::size_t& pos,
               std::span<const uint64_t> arrivals, uint64_t base, Clock::time_point t0,
               const std::atomic<bool>& stop, bool record, Samples& s, Key u,
               Progress& progress, int g) {
  lfbt::serve::BatchBuffer<Stack> buf(view, kBatch);
  std::vector<Clock::time_point> pending_sched;
  pending_sched.reserve(kBatch);
  Clock::time_point first_submit{};
  lfbt::serve::OpTicket last{};
  bool any = false;
  const bool paced = !arrivals.empty();

  // Sojourn and queue wait for every op the flush that just ran drained.
  auto drained = [&](Clock::time_point start, Clock::time_point end) {
    if (record && paced) {
      for (const auto& a : pending_sched) {
        s.sojourn_ns.push_back(clamp32(uint64_t((end - a).count())));
        s.queue_wait_ns.push_back(
            clamp32(start > a ? uint64_t((start - a).count()) : 0));
      }
    }
    pending_sched.clear();
    if (record) {
      ++s.flushes;
      if (paced) s.flush_ns.push_back(clamp32(uint64_t((end - start).count())));
    }
  };

  auto one = [&](Clock::time_point sched) {
    const Op& op = ring[pos];
    if (++pos == ring.size()) pos = 0;
    ++s.attempted;
    if (op.tag == kProbe) {
      // A direct (unbatched) call on the same stack: per-kind latency.
      const uint64_t a = now_ns();
      const Key r = apply(view, op);
      const uint32_t d = clamp32(now_ns() - a);
      if (record && paced) (s.*kKindField[op.kind]).push_back(d);
      if (!answer_ok(op.kind, op.key, r, u)) ++s.failed;
      if (record) {
        ++s.ops;
        ++s.probes;
        ++s.kind_ops[op.kind];
      }
      return;
    }
    if (paced) pending_sched.push_back(sched);
    const lfbt::Op lop{static_cast<lfbt::OpKind>(op.kind), op.key, 0, 0};
    const bool fills = buf.pending() + 1 == buf.capacity();
    const Clock::time_point start = Clock::now();
    {
      std::optional<SpanScope> sp;
      if (fills) sp.emplace(kLayerFlush);
      last = buf.submit(lop);
    }
    any = true;
    if (buf.pending() == 0) {
      drained(start, Clock::now());
    } else if (buf.pending() == 1) {
      first_submit = Clock::now();
    }
    if (record) {
      ++s.ops;
      ++s.submitted;
      ++s.kind_ops[op.kind];
    }
  };
  // Linger valve: called only once the oldest pending op is due, so
  // every call drains and gets a flush span.
  auto linger = [&](Clock::time_point now) {
    if (buf.pending() == 0 || now - first_submit < kLinger) return;
    {
      SpanScope sp(kLayerFlush);
      buf.maybe_flush(kLinger, now);
    }
    drained(now, Clock::now());
    if (record) ++s.linger_flushes;
  };

  if (paced) {
    for (uint64_t off : arrivals) {
      const Clock::time_point sched = t0 + std::chrono::nanoseconds(off - base);
      for (;;) {
        const Clock::time_point now = Clock::now();
        if (now >= sched) {
          if (record) s.lag_ns.push_back(clamp32(uint64_t((now - sched).count())));
          break;
        }
        linger(now);
      }
      one(sched);
      linger(Clock::now());
    }
  } else {
    while (!stop.load(std::memory_order_relaxed)) {
      for (int j = 0; j < 64; ++j) one(Clock::time_point{});
      progress.add(g, 64);
    }
  }
  if (buf.pending() > 0) {
    const Clock::time_point start = Clock::now();
    {
      SpanScope sp(kLayerFlush);
      buf.flush();
    }
    drained(start, Clock::now());
  }
  // Every ticket must be ready once the final flush ran.
  s.attempted += 1;
  if (any && !buf.ready(last)) ++s.failed;
}

template <class Stack>
void open_loop(Context& c, Stack& view) {
  const int gens = c.w->threads;
  const double p1 = c.args.seconds / 2, p2 = c.args.seconds / 2;
  const double warm = std::min(1.0, 0.1 * c.args.seconds);
  std::vector<std::size_t> pos(gens, 0);

  // Poisson schedule from the seed, before any timing.
  const double mean_gap_ns = 1e9 / (kServeRate / gens);
  const auto n1 = static_cast<std::size_t>(kServeRate / gens * p1);
  std::vector<std::vector<uint64_t>> arrivals(gens);
  for (int g = 0; g < gens; ++g) {
    lfbt::Xoshiro256 rng(mix_seed(c.args.seed, 500 + g));
    double t = 0;
    arrivals[g].resize(n1);
    for (auto& a : arrivals[g]) {
      t += mean_gap_ns * -std::log((double(rng.next() >> 11) + 1.0) * 0x1.0p-53);
      a = static_cast<uint64_t>(t);
    }
  }

  // Runs the generators over arrivals [lo, hi) of the schedule (paced) or
  // for `secs` (unpaced); returns the unpaced throughput and the
  // per-thread samples.
  auto segment = [&](bool paced, std::size_t lo, std::size_t hi, double secs, bool record) {
    std::atomic<bool> stop{false};
    std::atomic<int> running{gens};
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    Clock::time_point t0;
    std::vector<std::thread> th;
    std::vector<Samples> local(gens);
    Progress progress(gens);
    double mops = 0;
    for (int g = 0; g < gens; ++g) {
      th.emplace_back([&, g] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        std::span<const uint64_t> a;
        if (paced) a = std::span<const uint64_t>(arrivals[g]).subspan(lo, hi - lo);
        generator(view, c.rings[g], pos[g], a, a.empty() ? 0 : a.front(), t0, stop, record,
                  local[g], c.u, progress, g);
        running.fetch_sub(1);
      });
    }
    while (ready.load() != gens) std::this_thread::yield();
    t0 = Clock::now() + kSettle;
    go.store(true, std::memory_order_release);
    if (paced) {
      c.sync.run_while(running);
    } else {
      mops = progress.median_rate(c.sync, t0, secs);
      stop.store(true);
    }
    for (auto& t : th) t.join();
    return std::make_pair(mops, std::move(local));
  };

  // Each phase runs as kSegments segments on fresh threads. Per-op cost
  // differs between threads by placement for as long as a thread lives,
  // so a run pools several placements instead of hanging on one.
  segment(false, 0, 0, warm, false);
  c.mem0 = lfbt::Stats::memory();
  const lfbt::StepCounts s0 = lfbt::Stats::aggregate();
  SpanLog::enabled().store(c.args.trace);
  std::vector<Samples> per1, per2;
  for (int k = 0; k < kSegments; ++k) {
    auto part = segment(true, n1 * k / kSegments, n1 * (k + 1) / kSegments, 0, true).second;
    for (auto& s : part) per1.push_back(std::move(s));
  }
  const uint64_t keys_before_p2 = span_calls(kLayerKeys);
  std::vector<double> rates;
  for (int k = 0; k < kSegments; ++k) {
    auto [mops, part] = segment(false, 0, 0, p2 / kSegments, true);
    rates.push_back(mops);
    for (auto& s : part) per2.push_back(std::move(s));
  }
  const double mops2 = median(rates);
  SpanLog::enabled().store(false);
  c.steps = lfbt::Stats::aggregate() - s0;
  c.mem1 = lfbt::Stats::memory();
  const Samples ph1 = sum_counts(per1), ph2 = sum_counts(per2);

  c.count("invariants_and_tickets",
          {ph1.attempted + ph2.attempted, ph1.failed + ph2.failed});
  c.m.set("throughput_mops", mops2, "Mops/s");
  report_latencies(c, per1, kSegments);
  c.samples.integer("phase1_arrivals", n1 * gens).integer("phase2_ops", ph2.ops);

  // serve layer (phase 1 for waits and flushes, phase 2 for coalescing).
  report_latency(c, "serve.queue_wait", per1, &Samples::queue_wait_ns, 1e3, "us", kSegments);
  c.m.set("serve.linger_flush_frac", ratio(ph1.linger_flushes, ph1.flushes), "ratio");
  c.m.set("serve.generator_lag_p99_us",
          windowed_quantile(per1, &Samples::lag_ns, 0.99, kSegments) / 1e3, "us");
  c.m.set("serve.ops_per_flush", ratio(ph2.submitted, ph2.flushes), "ops");
  report_latency(c, "serve.flush", per1, &Samples::flush_ns, 1e3, "us", kSegments);
  if (c.args.trace) {
    // Inner calls the batches made in phase 2 (keys-layer spans minus the
    // direct probe calls) against the ops submitted to them.
    const double inner_calls =
        double(span_calls(kLayerKeys) - keys_before_p2) - double(ph2.probes);
    c.m.set("serve.coalesced_frac", 1.0 - ratio(inner_calls, ph2.submitted), "ratio");
  }
  c.samples.integer("generator_lag", sample_count(per1, &Samples::lag_ns));
  for (int k = 0; k < kKinds; ++k) c.kind_ops[k] = ph1.kind_ops[k] + ph2.kind_ops[k];
  c.measured_ops = ph1.ops + ph2.ops;
}

// ---- per-layer metrics from counters, spans and the sampler --------------------

void counter_metrics(Context& c) {
  const lfbt::StepCounts& d = c.steps;
  const double ops = double(c.measured_ops);
  const double updates = double(c.kind_ops[kInsert] + c.kind_ops[kErase]);
  c.m.set("core.cas_per_op", ratio(d.cas_attempts, ops), "count");
  c.m.set("core.cas_success_frac", ratio(d.cas_successes, d.cas_attempts), "ratio");
  c.m.set("core.helps_per_update", ratio(d.helps, updates), "count");
  c.m.set("core.restarts_per_update", ratio(d.trie_restarts, updates), "count");
  c.m.set("core.query_helpers_per_op", ratio(d.query_helpers, ops), "count");
  c.m.set("core.fused_frac", ratio(d.fused_queries, d.query_helpers), "ratio");
  c.m.set("core.query_node_pool_hit_frac",
          d.query_helpers ? 1.0 - ratio(d.query_node_allocs, d.query_helpers) : 0.0, "ratio");

  const std::pair<lfbt::MemClass, const char*> classes[] = {
      {lfbt::MemClass::kUpdateNode, "update_node"},
      {lfbt::MemClass::kQueryNode, "query_node"},
      {lfbt::MemClass::kNotifyNode, "notify_node"},
      {lfbt::MemClass::kAnnCell, "ann_cell"}};
  for (const auto& [cls, name] : classes) {
    const auto& a = c.mem0.cls[int(cls)];
    const auto& b = c.mem1.cls[int(cls)];
    c.m.set(std::string("reclaim.recycle_frac.") + name,
            ratio(double(b.recycled - a.recycled), double(b.acquired - a.acquired)), "ratio");
  }
  uint64_t in_use = 0;
  for (const auto& cl : c.mem1.cls) in_use += cl.in_use();
  c.m.set("reclaim.reserved_mib", double(c.mem1.total_reserved()) / (1 << 20), "MiB");
  c.m.set("reclaim.in_use", double(in_use), "count");

  c.m.set("sync.guard_ns", median(c.sync.guard_ns), "ns");
  c.m.set("sync.thread_id_ns", median(c.sync.id_ns), "ns");
  std::vector<double> pend = c.sync.pending;
  c.m.set("sync.ebr_pending_p50", quantile(pend, 0.5), "count");
  c.m.set("sync.ebr_pending_max",
          pend.empty() ? 0.0 : *std::max_element(pend.begin(), pend.end()), "count");

  std::vector<uint32_t> shard_dur, keys_self;
  {
    std::lock_guard<std::mutex> lk(SpanLog::registry_mu());
    for (const auto& l : SpanLog::registry()) {
      shard_dur.insert(shard_dur.end(), l->dur_ns[kLayerShard].begin(),
                       l->dur_ns[kLayerShard].end());
      keys_self.insert(keys_self.end(), l->self_ns[kLayerKeys].begin(),
                       l->self_ns[kLayerKeys].end());
    }
  }
  c.m.set("shard.call_p50_ns", quantile(shard_dur, 0.5), "ns");
  c.m.set("keys.self_p50_ns", quantile(keys_self, 0.5), "ns");
  c.samples.integer("shard_spans", shard_dur.size()).integer("keys_spans", keys_self.size());
}

void write_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::lock_guard<std::mutex> lk(SpanLog::registry_mu());
  int thread = 0;
  for (const auto& l : SpanLog::registry()) {
    for (const SpanRecord& r : l->kept) {
      std::fprintf(f,
                   "{\"thread\": %d, \"req\": %llu, \"flush\": %llu, \"layer\": \"%s\", "
                   "\"parent\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu}\n",
                   thread, (unsigned long long)r.req, (unsigned long long)r.flush,
                   kLayerNames[r.layer], r.parent < kLayers ? kLayerNames[r.parent] : "",
                   (unsigned long long)r.start_ns, (unsigned long long)r.end_ns);
    }
    ++thread;
  }
  std::fclose(f);
}

// ---- the single-threaded layer ladder ------------------------------------------

struct Rung {
  double kind_ns[kKinds] = {};
  double update_ns = 0;
  uint64_t reads = 0;
  uint64_t ops = 0;
};

/// Replays the first `kLadderOps` ops of stream 0 through one layer,
/// timing each op and comparing each answer with a std::set oracle.
template <class S, class Make>
Rung ladder_rung(Context& c, Make make, const std::set<Key>& oracle0, double clk,
                 CheckCount& chk, std::unique_ptr<S>* keep = nullptr) {
  std::unique_ptr<S> s = make();
  for (uint32_t k : c.prefill) s->insert(k);
  std::set<Key> oracle = oracle0;
  std::vector<uint32_t> t[kKinds];
  const std::vector<Op>& ring = c.rings[0];
  const std::size_t n = std::min(kLadderOps, ring.size());
  const lfbt::StepCounts s0 = lfbt::Stats::aggregate();
  for (std::size_t i = 0; i < n; ++i) {
    const Op& op = ring[i];
    const uint64_t t0 = now_ns();
    const Key r = apply(*s, op);
    t[op.kind].push_back(clamp32(now_ns() - t0));
    ++chk.attempted;
    if (r != oracle_apply(oracle, op)) ++chk.failed;
  }
  Rung out;
  out.reads = (lfbt::Stats::aggregate() - s0).reads;
  out.ops = n;
  for (int k = 0; k < kKinds; ++k) {
    out.kind_ns[k] = t[k].empty() ? 0.0 : std::max(0.0, quantile(t[k], 0.5) - clk);
  }
  std::vector<uint32_t> upd = t[kInsert];
  upd.insert(upd.end(), t[kErase].begin(), t[kErase].end());
  out.update_ns = upd.empty() ? 0.0 : std::max(0.0, quantile(upd, 0.5) - clk);
  if (keep) *keep = std::move(s);
  return out;
}

/// Share of ⊥ among relaxed predecessor/successor answers while the
/// workload's threads replay their streams on one relaxed trie.
double relaxed_bottom_frac(Context& c, RelaxedBinaryTrie& t, CheckCount& chk) {
  const int threads = c.w->threads;
  std::vector<uint64_t> queries(threads), bottoms(threads), bad(threads);
  std::vector<std::thread> th;
  for (int i = 0; i < threads; ++i) {
    th.emplace_back([&, i] {
      const std::vector<Op>& ring = c.rings[i];
      for (std::size_t j = 0; j < kRelaxedReplayOps; ++j) {
        const Op& op = ring[(kLadderOps + j) % ring.size()];
        const Key r = apply(t, op);
        if (op.kind == kPredecessor || op.kind == kSuccessor) {
          ++queries[i];
          if (r == lfbt::kBottom) ++bottoms[i];
        }
        if (!answer_ok(op.kind, op.key, r, c.u, true)) ++bad[i];
      }
    });
  }
  for (auto& x : th) x.join();
  uint64_t q = 0, b = 0;
  for (int i = 0; i < threads; ++i) {
    q += queries[i];
    b += bottoms[i];
    chk.failed += bad[i];
  }
  chk.attempted += kRelaxedReplayOps * uint64_t(threads);
  return ratio(double(b), double(q));
}

void ladder(Context& c) {
  const double clk = clock_overhead_ns();
  const std::set<Key> oracle0(c.prefill.begin(), c.prefill.end());
  const Key u = c.u;
  CheckCount chk, relaxed_chk;

  std::unique_ptr<RelaxedBinaryTrie> relaxed;
  const Rung rel = ladder_rung<RelaxedBinaryTrie>(
      c, [u] { return std::make_unique<RelaxedBinaryTrie>(u); }, oracle0, clk, chk, &relaxed);
  const double bottom = relaxed_bottom_frac(c, *relaxed, relaxed_chk);
  relaxed.reset();
  const Rung core = ladder_rung<LockFreeBinaryTrie>(
      c, [u] { return std::make_unique<LockFreeBinaryTrie>(u); }, oracle0, clk, chk);
  const Rung s1 = ladder_rung<ShardedTrie>(
      c, [u] { return std::make_unique<ShardedTrie>(u, 1); }, oracle0, clk, chk);
  const Rung s8 = ladder_rung<ShardedTrie>(
      c, [u] { return std::make_unique<ShardedTrie>(u, kServeShards); }, oracle0, clk, chk);
  const Rung kv = ladder_rung<View>(
      c, [u] { return std::make_unique<View>(u, kServeShards); }, oracle0, clk, chk);
  c.count("ladder_oracle", chk);
  c.count("relaxed_replay", relaxed_chk);

  for (int k = 0; k < kKinds; ++k) {
    const std::string kind = kKindNames[k];
    c.m.set("relaxed." + kind + "_ns", rel.kind_ns[k], "ns");
    c.m.set("core." + kind + "_ns", core.kind_ns[k], "ns");
    if (k != kContains) {
      c.m.set("core.marginal." + kind + "_ns", core.kind_ns[k] - rel.kind_ns[k], "ns");
    }
  }
  c.m.set("relaxed.reads_per_op", ratio(double(rel.reads), double(rel.ops)), "count");
  c.m.set("relaxed.bottom_frac", bottom, "ratio");
  c.m.set("shard.s1.update_ns", s1.update_ns, "ns");
  c.m.set("shard.s8.update_ns", s8.update_ns, "ns");
  c.m.set("shard.marginal.s1.update_ns", s1.update_ns - core.update_ns, "ns");
  c.m.set("shard.marginal.s8.update_ns", s8.update_ns - core.update_ns, "ns");
  c.m.set("keys.marginal.update_ns", kv.update_ns - s8.update_ns, "ns");
  c.m.set("ladder.clock_overhead_ns", clk, "ns");
}

// ---- one workload run --------------------------------------------------------

template <class S, class Make, class Loop>
void run_set(Context& c, Make make, Loop loop) {
  std::vector<double> setups;
  const uint64_t rss0 = rss_bytes();
  std::unique_ptr<S> s;
  setups.push_back(timed_setup(s, make, c.prefill));
  c.sync.on = c.args.trace;
  loop(*s);
  c.sync.on = false;
  const uint64_t rss1 = rss_bytes();
  const std::size_t live = s->size();
  c.m.set("bytes_per_key", ratio(double(rss1) - double(rss0), double(live)), "B");
  c.samples.integer("live_keys", live);
  c.count("audit", audit(*s, c.u));
  s.reset();
  for (int i = 1; i < kSetups; ++i) {
    std::unique_ptr<S> again;
    setups.push_back(timed_setup(again, make, c.prefill));
  }
  c.m.set("setup_s", median(setups), "s");
  c.samples.integer("setups", setups.size());
}

JsonObj provenance(const Context& c) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return JsonObj()
      .str("compiler", compiler)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .boolean("trie_stats", lfbt::Stats::enabled())
      .integer("nproc", std::thread::hardware_concurrency())
      .boolean("pinning", false)
      .integer("seed", c.args.seed)
      .num("seconds", c.args.seconds)
      .boolean("trace", c.args.trace);
}

JsonObj params(const Workload& w) {
  std::string mix;
  for (int k = 0; k < kKinds; ++k) {
    if (k) mix += "/";
    mix += std::string(kKindNames[k]) + ":" + std::to_string(w.mix.pct[k]);
  }
  const char* dist = w.dist == DistKind::kZipf      ? "zipf-0.99"
                     : w.dist == DistKind::kFlash ? "flash-crowd-256-every-65536"
                                                  : "uniform";
  JsonObj o;
  o.str("workload", w.name)
      .integer("universe", uint64_t{1} << w.log2_u)
      .integer("threads", w.threads)
      .str("mix", mix)
      .str("distribution", dist)
      .str("prefill", "uniform, half the universe")
      .str("loop", w.open_loop ? "open" : "closed")
      .integer("probe_every", kSampleBlock)
      .integer("stream_ops_per_thread", kRingOps)
      .integer("ladder_ops", kLadderOps)
      .integer("setups", kSetups);
  if (w.open_loop) {
    o.str("structure", "BatchBuffer<KeyspaceView<uint64_t, ShardedTrie>>")
        .integer("shards", kServeShards)
        .integer("batch", kBatch)
        .integer("linger_us", kLinger.count())
        .num("phase1_rate_ops_s", kServeRate);
  } else {
    o.str("structure", "LockFreeBinaryTrie");
  }
  return o;
}

int run_workload(const Args& args) {
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Context c;
  c.w = w;
  c.args = args;
  c.u = Key{1} << w->log2_u;
  // Inputs come only from the seed, and are made before any timing.
  std::vector<uint32_t> shuffle = make_shuffle(c.u, mix_seed(args.seed, 100));
  const std::span<const uint32_t> absent =
      std::span<const uint32_t>(shuffle).subspan(shuffle.size() / 2);
  const std::size_t slice = absent.size() / w->threads;
  for (int t = 0; t < w->threads; ++t) {
    auto dist = make_dist(*w);
    c.rings.push_back(make_stream(w->mix, *dist, mix_seed(args.seed, t), kRingOps,
                                  absent.subspan(t * slice, slice)));
  }
  shuffle.resize(shuffle.size() / 2);
  c.prefill = std::move(shuffle);
  const Key u = c.u;

  if (!w->open_loop) {
    run_set<LockFreeBinaryTrie>(
        c, [u] { return std::make_unique<LockFreeBinaryTrie>(u); },
        [&](LockFreeBinaryTrie& s) { closed_loop(c, s); });
  } else if (args.trace) {
    run_set<TracedView>(
        c, [u] { return std::make_unique<TracedView>(u, kServeShards); },
        [&](TracedView& s) { open_loop(c, s); });
  } else {
    run_set<View>(
        c, [u] { return std::make_unique<View>(u, kServeShards); },
        [&](View& s) { open_loop(c, s); });
  }
  if (args.trace) {
    counter_metrics(c);
    ladder(c);
    if (!args.spans_out.empty() && span_calls(kLayerKeys) > 0) write_spans(args.spans_out);
  }
  const bool ok = c.total.failed == 0;
  c.m.set("failed_frac", ratio(double(c.total.failed), double(c.total.attempted)), "ratio");
  JsonObj out;
  out.boolean("correct", ok)
      .integer("attempted", c.total.attempted)
      .integer("failed", c.total.failed)
      .obj("metrics", c.m.json())
      .obj("samples", c.samples)
      .obj("checks", c.checks)
      .obj("provenance", provenance(c))
      .obj("params", params(*w));
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

// ---- self-test: the checks must fire on a faulty set ---------------------------

int self_test() {
  constexpr Key u = 4096;
  const Mix mix{{20, 20, 20, 20, 20}};
  lfbt::UniformDist dist(u);
  std::vector<uint32_t> pre = make_shuffle(u, 8);
  const std::vector<Op> ring =
      make_stream(mix, dist, 7, kSampleBlock * kKinds * 250,
                  std::span<const uint32_t>(pre).subspan(u / 2));
  pre.resize(u / 2);
  JsonObj fired;
  CheckCount all;
  bool every = true;
  auto note = [&](const char* name, const CheckCount& c) {
    fired.obj(name, JsonObj().integer("attempted", c.attempted).integer("failed", c.failed));
    all += c;
    every = every && c.failed > 0;
  };

  FaultySet fs(u);
  for (uint32_t k : pre) fs.insert(k);
  CheckCount inv;
  for (const Op& op : ring) {
    ++inv.attempted;
    if (!answer_ok(op.kind, op.key, apply(fs, op), u)) ++inv.failed;
  }
  note("invariants", inv);
  note("audit", audit(fs, u));

  FaultySet fo(u);
  for (uint32_t k : pre) fo.insert(k);
  std::set<Key> oracle(pre.begin(), pre.end());
  CheckCount orc;
  for (const Op& op : ring) {
    ++orc.attempted;
    if (apply(fo, op) != oracle_apply(oracle, op)) ++orc.failed;
  }
  note("oracle", orc);

  // A ticket whose buffer never flushed must be caught as not ready.
  LockFreeBinaryTrie t(u);
  CheckCount tickets;
  {
    lfbt::serve::BatchBuffer<LockFreeBinaryTrie> buf(t, 16);
    const auto tk = buf.insert(1);
    ++tickets.attempted;
    if (!buf.ready(tk)) ++tickets.failed;
    buf.flush();
  }
  note("tickets", tickets);

  JsonObj out;
  out.boolean("self_test_passed", every)
      .integer("attempted", all.attempted)
      .integer("failed", all.failed)
      .num("failed_frac", ratio(double(all.failed), double(all.attempted)))
      .obj("checks", fired);
  std::printf("%s\n", out.dump().c_str());
  return every ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (k == "--self-test") {
      a.self_test = true;
    } else if (v == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", k.c_str());
      return 2;
    } else if (k == "--workload") {
      a.workload = v, ++i;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10), ++i;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr), ++i;
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0, ++i;
    } else if (k == "--spans-out") {
      a.spans_out = v, ++i;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  if (a.self_test) return perfbench::self_test();
  if (!(a.seconds > 0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  return perfbench::run_workload(a);
}
