// Bench-side span tracing. `Timed<S>` owns an S, models the same
// OrderedSet surface, and records one span per call: the layer, the
// request it belongs to, its parent and its start/end. It sits at each
// boundary that is composed by template, e.g.
//   BatchBuffer<Timed<KeyspaceView<uint64_t, Timed<ShardedTrie>>>>,
// so a layer's self time is its span minus the child span inside it.
// The benchmark opens the parent "flush" spans itself.
//
// Spans stay in per-thread memory; durations feed the per-layer
// summaries and the first kKeptSpans raw spans per thread are written
// out when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "keys/encoded_set.hpp"
#include "shard/ordered_set.hpp"
#include "shard/sharded_trie.hpp"
#include "util.hpp"

namespace perfbench {

enum Layer : uint8_t { kLayerFlush, kLayerKeys, kLayerShard, kLayers };
inline constexpr const char* kLayerNames[kLayers] = {"flush", "keys", "shard"};

template <class S>
struct LayerOf;
template <>
struct LayerOf<lfbt::ShardedTrie> {
  static constexpr Layer value = kLayerShard;
};
template <class K, class Inner>
struct LayerOf<lfbt::keys::KeyspaceView<K, Inner>> {
  static constexpr Layer value = kLayerKeys;
};

struct SpanRecord {
  uint64_t req;    // the op; 0 for a flush span
  uint64_t flush;  // the flush that drained the op
  uint64_t start_ns;
  uint64_t end_ns;
  uint8_t layer;
  uint8_t parent;  // kLayers = no parent
};

/// Per-thread span state and sinks. Registered with a process-wide list
/// so the main thread can summarise after the workers joined.
class SpanLog {
 public:
  static constexpr std::size_t kKeptSpans = 2000;
  static constexpr std::size_t kMaxSamples = std::size_t{1} << 22;

  static std::atomic<bool>& enabled() {
    static std::atomic<bool> on{false};
    return on;
  }
  static SpanLog& local() {
    thread_local SpanLog* log = [] {
      auto* l = new SpanLog;
      std::lock_guard<std::mutex> lk(registry_mu());
      registry().emplace_back(l);
      return l;
    }();
    return *log;
  }
  static std::vector<std::unique_ptr<SpanLog>>& registry() {
    static std::vector<std::unique_ptr<SpanLog>> r;
    return r;
  }
  static std::mutex& registry_mu() {
    static std::mutex m;
    return m;
  }

  /// Opens a span; returns the state the matching close() needs.
  struct Open {
    uint64_t start;
    uint64_t saved_child;
    uint8_t parent;
  };
  Open open(Layer layer) {
    if (layer == kLayerFlush) {
      ++flush_;
    } else if (depth_ == 0 || stack_[depth_ - 1] == kLayerFlush) {
      ++req_;  // outermost layer of a new request
    }
    Open o{0, child_ns_, depth_ == 0 ? uint8_t(kLayers) : stack_[depth_ - 1]};
    stack_[depth_++] = layer;
    child_ns_ = 0;
    o.start = now_ns();
    return o;
  }
  void close(Layer layer, const Open& o) {
    const uint64_t end = now_ns();
    --depth_;
    const uint64_t dur = end - o.start;
    const uint64_t self = dur > child_ns_ ? dur - child_ns_ : 0;
    child_ns_ = o.saved_child + dur;
    ++calls[layer];
    if (dur_ns[layer].size() < kMaxSamples) {
      dur_ns[layer].push_back(static_cast<uint32_t>(std::min<uint64_t>(dur, UINT32_MAX)));
      self_ns[layer].push_back(static_cast<uint32_t>(std::min<uint64_t>(self, UINT32_MAX)));
    }
    if (kept.size() < kKeptSpans) {
      kept.push_back({layer == kLayerFlush ? 0 : req_, flush_, o.start, end, layer,
                      o.parent});
    }
  }

  std::vector<uint32_t> dur_ns[kLayers];
  std::vector<uint32_t> self_ns[kLayers];
  std::vector<SpanRecord> kept;
  uint64_t calls[kLayers] = {};

 private:
  uint8_t stack_[8] = {};
  int depth_ = 0;
  uint64_t child_ns_ = 0;
  uint64_t req_ = 0;
  uint64_t flush_ = 0;
};

/// Spans closed so far on `layer`, all threads. Read after the
/// recording threads joined.
inline uint64_t span_calls(Layer layer) {
  std::lock_guard<std::mutex> lk(SpanLog::registry_mu());
  uint64_t n = 0;
  for (const auto& l : SpanLog::registry()) n += l->calls[layer];
  return n;
}

/// RAII span; a no-op while tracing is disabled.
class SpanScope {
 public:
  explicit SpanScope(Layer layer)
      : layer_(layer), log_(SpanLog::enabled().load(std::memory_order_relaxed)
                                ? &SpanLog::local()
                                : nullptr) {
    if (log_) open_ = log_->open(layer);
  }
  ~SpanScope() {
    if (log_) log_->close(layer_, open_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Layer layer_;
  SpanLog* log_;
  SpanLog::Open open_{};
};

/// Timing adapter: forwards every call to the owned S inside a span.
template <lfbt::OrderedSet S>
class Timed {
 public:
  static constexpr Layer kLayer = LayerOf<S>::value;

  template <class... A>
  explicit Timed(A&&... a) : s_(std::forward<A>(a)...) {}

  Key universe() const { return s_.universe(); }
  void insert(Key x) {
    SpanScope sp(kLayer);
    s_.insert(x);
  }
  void erase(Key x) {
    SpanScope sp(kLayer);
    s_.erase(x);
  }
  bool contains(Key x) {
    SpanScope sp(kLayer);
    return s_.contains(x);
  }
  Key predecessor(Key y) {
    SpanScope sp(kLayer);
    return s_.predecessor(y);
  }
  Key successor(Key y) {
    SpanScope sp(kLayer);
    return s_.successor(y);
  }
  std::size_t range_scan(Key lo, Key hi, std::size_t limit, std::vector<Key>& out) {
    SpanScope sp(kLayer);
    return s_.range_scan(lo, hi, limit, out);
  }
  std::size_t size() const { return s_.size(); }
  bool empty() const { return s_.empty(); }
  int shard_count() const { return s_.shard_count(); }

 private:
  S s_;
};

static_assert(lfbt::ShardedOrderedSet<Timed<lfbt::ShardedTrie>>);
static_assert(lfbt::TraversableOrderedSet<Timed<lfbt::ShardedTrie>>);
static_assert(lfbt::SizedOrderedSet<Timed<lfbt::ShardedTrie>>);

}  // namespace perfbench
