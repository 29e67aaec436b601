// Process-wide service metrics: lock-free counters, gauges, and log-scale
// latency histograms, collected in a single MetricsRegistry and exported as
// Prometheus-style text (RenderText) or a JSON snapshot (RenderJson).
//
// Hot-path contract: recording NEVER takes a lock. Counters and histograms
// are sharded into a small fixed number of cache-line-padded atomic slots;
// each thread hashes to one slot and increments it with relaxed ordering,
// and the shards are merged only on read (Value / Snapshot / render). The
// registry mutex guards registration and rendering only.
//
// Percentiles come from fixed-boundary log-scale buckets: 4 sub-buckets per
// power of two (≤ 25% relative bucket width), linearly interpolated inside
// the bucket, with the observed maximum tracked exactly — so p50/p95/p99
// are exact to within one bucket and p100 == max is exact. All latency
// histograms in the service record NANOSECONDS.
//
// Recording is unconditional: there is no switch that turns it off.
//
// QueryTrace is separate from the registry: a caller-owned, fixed-capacity
// record of per-query stage spans (sketch-query, shard-scan, heap-merge)
// threaded through QueryEngine on request. It is always live — tracing is
// opt-in per call, so it costs nothing unless a trace is passed.

#ifndef IPSKETCH_SERVICE_METRICS_H_
#define IPSKETCH_SERVICE_METRICS_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/mutex.h"

namespace ipsketch {
namespace metrics {

/// Monotonic clock in nanoseconds — the time base of every histogram.
uint64_t NowNs();

/// Number of atomic slots counters and histograms shard across. Each
/// recording thread is pinned to slot (thread-arrival-index mod kShards).
inline constexpr size_t kShards = 16;

/// The calling thread's shard slot, assigned round-robin on first use.
size_t TlsShardSlot();

/// Monotonic event counter. Add is lock-free and wait-free (one relaxed
/// fetch_add on the caller's shard); Value sums the shards.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    shards_[TlsShardSlot()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Slot& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  Slot shards_[kShards];
};

/// A signed instantaneous value (queue depth, occupancy). Gauges are not
/// hot enough to shard: one atomic.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  void Set(int64_t value) { v_.store(value, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Fixed log-scale bucket layout shared by Histogram and its snapshots:
/// buckets 0–3 are exact values 0–3; from there, 4 sub-buckets per power of
/// two up to bucket kNumBuckets-1, which absorbs everything at or above its
/// lower bound (the overflow bucket; its effective upper edge is the
/// recorded max). With values in ns the last regular boundary sits near
/// 2^40 ns ≈ 18 minutes.
inline constexpr size_t kNumBuckets = 160;

/// Index of the bucket holding `v`.
constexpr size_t BucketIndex(uint64_t v) {
  if (v < 4) return static_cast<size_t>(v);
  const int k = 63 - std::countl_zero(v);  // index of the highest set bit
  const uint64_t sub = (v >> (k - 2)) & 3;
  const size_t idx = static_cast<size_t>(4 * (k - 1)) + sub;
  return idx < kNumBuckets ? idx : kNumBuckets - 1;
}

/// Inclusive lower bound of bucket `idx` (upper bound = lower of idx + 1).
constexpr uint64_t BucketLowerBound(size_t idx) {
  if (idx < 4) return idx;
  const uint64_t k = idx / 4 + 1;
  const uint64_t sub = idx % 4;
  return (4 + sub) << (k - 2);
}

/// A merged, point-in-time view of a Histogram — what every read API and
/// renderer works from.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  uint64_t buckets[kNumBuckets] = {};

  /// The q-th percentile (q in [0, 100]), interpolated linearly inside the
  /// covering bucket and clamped to the observed max; 0 when empty.
  /// q >= 100 returns the exact max.
  double Percentile(double q) const;

  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};

/// Sharded log-scale histogram. Record is lock-free (one relaxed fetch_add
/// plus a relaxed CAS-max on the caller's shard).
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    Shard& s = shards_[TlsShardSlot()];
    s.counts[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
    uint64_t cur = s.max.load(std::memory_order_relaxed);
    while (value > cur &&
           !s.max.compare_exchange_weak(cur, value,
                                        std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot Snapshot() const;

  uint64_t Count() const { return Snapshot().count; }
  double Percentile(double q) const { return Snapshot().Percentile(q); }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> counts[kNumBuckets] = {};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };
  Shard shards_[kShards];
};

/// The process-wide metric namespace. Get* registers on first use and
/// returns a reference that stays valid for the process lifetime (the
/// global registry is never destroyed); repeated calls with the same name
/// return the same metric, so components simply look their instruments up
/// at construction. Names may carry embedded Prometheus labels —
/// `store_shard_occupancy{shard="3"}` — which RenderText splits correctly.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every service component records into.
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name, const std::string& help = "");
  Gauge& GetGauge(const std::string& name, const std::string& help = "");
  Histogram& GetHistogram(const std::string& name,
                          const std::string& help = "");

  /// Prometheus text exposition: HELP/TYPE headers, cumulative
  /// `_bucket{le=...}` lines (non-empty buckets plus +Inf), `_sum`,
  /// `_count`. Deterministic order (sorted by name).
  std::string RenderText() const;

  /// JSON snapshot: {"counters": {...}, "gauges": {...}, "histograms":
  /// {name: {count, sum, mean, p50, p95, p99, max}}}. Histogram values are
  /// in the histogram's own unit (ns for all service latency metrics).
  std::string RenderJson() const;

 private:
  // kLeaf: registration happens in component constructors and rendering in
  // exposition endpoints, both of which hold no other lock — and nothing is
  // ever acquired while holding the registry.
  mutable Mutex mu_{LockRank::kLeaf};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      IPS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ IPS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      IPS_GUARDED_BY(mu_);
  std::map<std::string, std::string> help_ IPS_GUARDED_BY(mu_);
};

/// RAII histogram timer: records NowNs() - construction time into `hist`
/// on destruction. A null hist skips the clock reads entirely.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* hist)
      : hist_(hist), start_(hist ? NowNs() : 0) {}
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;
  ~ScopedLatency() {
    if (hist_ != nullptr) hist_->Record(NowNs() - start_);
  }

 private:
  Histogram* hist_;
  uint64_t start_;
};

/// Where one query's time went: a fixed-capacity list of named stage spans
/// filled in by QueryEngine when a caller passes a trace. Spans beyond
/// kMaxSpans are dropped (and counted), never reallocated — a trace is
/// stack-friendly and allocation-free.
class QueryTrace {
 public:
  static constexpr size_t kMaxSpans = 8;

  struct Span {
    const char* stage = "";      ///< static string, e.g. "shard-scan"
    uint64_t start_ns = 0;       ///< NowNs() at span start
    uint64_t duration_ns = 0;
  };

  void Clear() { size_ = 0; dropped_ = 0; }
  void Add(const char* stage, uint64_t start_ns, uint64_t duration_ns) {
    if (size_ >= kMaxSpans) {
      ++dropped_;
      return;
    }
    spans_[size_++] = {stage, start_ns, duration_ns};
  }

  size_t size() const { return size_; }
  const Span& span(size_t i) const { return spans_[i]; }
  size_t dropped() const { return dropped_; }

  /// Sum of recorded span durations.
  uint64_t total_ns() const;

  /// One line, human-oriented: `sketch-query=0.812ms shard-scan=3.104ms
  /// heap-merge=0.021ms total=3.937ms`.
  std::string ToString() const;

 private:
  Span spans_[kMaxSpans];
  size_t size_ = 0;
  size_t dropped_ = 0;
};

/// RAII span recorder for a QueryTrace. A null trace skips the clock reads,
/// so instrumented code paths pay nothing when no one is tracing.
class ScopedSpan {
 public:
  ScopedSpan(QueryTrace* trace, const char* stage)
      : trace_(trace), stage_(stage), start_(trace ? NowNs() : 0) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->Add(stage_, start_, NowNs() - start_);
  }

 private:
  QueryTrace* trace_;
  const char* stage_;
  uint64_t start_;
};

}  // namespace metrics
}  // namespace ipsketch

#endif  // IPSKETCH_SERVICE_METRICS_H_
