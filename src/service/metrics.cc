#include "service/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace ipsketch {
namespace metrics {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

size_t TlsShardSlot() {
  static std::atomic<uint32_t> next{0};
  thread_local const size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

double HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  if (q >= 100.0) return static_cast<double>(max);
  const double target = std::max(q, 0.0) / 100.0 * static_cast<double>(count);
  uint64_t cum = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    const uint64_t in_bucket = buckets[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) >= target) {
      double lower = static_cast<double>(BucketLowerBound(b));
      // The overflow bucket has no upper boundary; the observed max caps
      // every bucket, so the top of the distribution interpolates toward
      // the true maximum instead of a synthetic boundary.
      double upper = b + 1 < kNumBuckets
                         ? static_cast<double>(BucketLowerBound(b + 1))
                         : static_cast<double>(max);
      upper = std::min(upper, static_cast<double>(max));
      lower = std::min(lower, upper);
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(in_bucket);
      return lower + (upper - lower) * frac;
    }
    cum += in_bucket;
  }
  return static_cast<double>(max);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot out;
  for (const Shard& s : shards_) {
    for (size_t b = 0; b < kNumBuckets; ++b) {
      const uint64_t c = s.counts[b].load(std::memory_order_relaxed);
      out.buckets[b] += c;
      out.count += c;
    }
    out.sum += s.sum.load(std::memory_order_relaxed);
    out.max = std::max(out.max, s.max.load(std::memory_order_relaxed));
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Deliberately leaked: components may record or subtract gauges from
  // static-storage destructors, which can run after any exit-time
  // destruction order the registry could pick.
  static MetricsRegistry* g = new MetricsRegistry();
  return *g;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  MutexLock lock(&mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
    if (!help.empty()) help_.emplace(name, help);
  }
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  MutexLock lock(&mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
    if (!help.empty()) help_.emplace(name, help);
  }
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help) {
  MutexLock lock(&mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
    if (!help.empty()) help_.emplace(name, help);
  }
  return *slot;
}

namespace {

// Splits `name` into the metric base name and an embedded label block:
// `occupancy{shard="3"}` -> ("occupancy", `shard="3"`). No braces -> empty
// labels.
void SplitLabels(const std::string& name, std::string* base,
                 std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, brace);
  *labels = name.substr(brace + 1, name.size() - brace - 2);
}

// `base{labels,extra}` with correct comma handling for any emptiness.
std::string JoinLabels(const std::string& base, const std::string& labels,
                       const std::string& extra) {
  std::string all = labels;
  if (!all.empty() && !extra.empty()) all += ",";
  all += extra;
  if (all.empty()) return base;
  return base + "{" + all + "}";
}

void AppendHeader(std::string* out, const std::string& base,
                  const std::string& help, const char* type,
                  std::string* last_base) {
  // One HELP/TYPE header per base name even when labeled instances repeat
  // (the map is sorted, so instances of a base are adjacent).
  if (base == *last_base) return;
  *last_base = base;
  if (!help.empty()) *out += "# HELP " + base + " " + help + "\n";
  *out += "# TYPE " + base + " " + std::string(type) + "\n";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::RenderText() const {
  MutexLock lock(&mu_);
  std::string out;
  std::string base, labels, last_base;
  char buf[160];
  for (const auto& [name, counter] : counters_) {
    SplitLabels(name, &base, &labels);
    auto help = help_.find(name);
    AppendHeader(&out, base, help == help_.end() ? "" : help->second,
                 "counter", &last_base);
    std::snprintf(buf, sizeof(buf), " %llu\n",
                  static_cast<unsigned long long>(counter->Value()));
    out += JoinLabels(base, labels, "") + buf;
  }
  for (const auto& [name, gauge] : gauges_) {
    SplitLabels(name, &base, &labels);
    auto help = help_.find(name);
    AppendHeader(&out, base, help == help_.end() ? "" : help->second, "gauge",
                 &last_base);
    std::snprintf(buf, sizeof(buf), " %lld\n",
                  static_cast<long long>(gauge->Value()));
    out += JoinLabels(base, labels, "") + buf;
  }
  for (const auto& [name, hist] : histograms_) {
    SplitLabels(name, &base, &labels);
    auto help = help_.find(name);
    AppendHeader(&out, base, help == help_.end() ? "" : help->second,
                 "histogram", &last_base);
    const HistogramSnapshot snap = hist->Snapshot();
    uint64_t cum = 0;
    for (size_t b = 0; b < kNumBuckets; ++b) {
      if (snap.buckets[b] == 0) continue;
      cum += snap.buckets[b];
      // `le` is the bucket's inclusive upper edge; the overflow bucket
      // only appears through +Inf below.
      if (b + 1 < kNumBuckets) {
        std::snprintf(buf, sizeof(buf), "le=\"%llu\"",
                      static_cast<unsigned long long>(BucketLowerBound(b + 1) -
                                                      1));
        std::string labeled = JoinLabels(base + "_bucket", labels, buf);
        std::snprintf(buf, sizeof(buf), " %llu\n",
                      static_cast<unsigned long long>(cum));
        out += labeled + buf;
      }
    }
    std::string inf = JoinLabels(base + "_bucket", labels, "le=\"+Inf\"");
    std::snprintf(buf, sizeof(buf), " %llu\n",
                  static_cast<unsigned long long>(snap.count));
    out += inf + buf;
    std::snprintf(buf, sizeof(buf), " %llu\n",
                  static_cast<unsigned long long>(snap.sum));
    out += JoinLabels(base + "_sum", labels, "") + buf;
    std::snprintf(buf, sizeof(buf), " %llu\n",
                  static_cast<unsigned long long>(snap.count));
    out += JoinLabels(base + "_count", labels, "") + buf;
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  MutexLock lock(&mu_);
  std::string out = "{\n  \"counters\": {";
  char buf[256];
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    std::snprintf(buf, sizeof(buf), "%s\n    \"%s\": %llu",
                  first ? "" : ",", JsonEscape(name).c_str(),
                  static_cast<unsigned long long>(counter->Value()));
    out += buf;
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    std::snprintf(buf, sizeof(buf), "%s\n    \"%s\": %lld",
                  first ? "" : ",", JsonEscape(name).c_str(),
                  static_cast<long long>(gauge->Value()));
    out += buf;
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    const HistogramSnapshot snap = hist->Snapshot();
    std::snprintf(
        buf, sizeof(buf),
        "%s\n    \"%s\": {\"count\": %llu, \"sum\": %llu, \"mean\": %.1f, "
        "\"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f, \"max\": %llu}",
        first ? "" : ",", JsonEscape(name).c_str(),
        static_cast<unsigned long long>(snap.count),
        static_cast<unsigned long long>(snap.sum), snap.Mean(),
        snap.Percentile(50), snap.Percentile(95), snap.Percentile(99),
        static_cast<unsigned long long>(snap.max));
    out += buf;
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

uint64_t QueryTrace::total_ns() const {
  uint64_t total = 0;
  for (size_t i = 0; i < size_; ++i) total += spans_[i].duration_ns;
  return total;
}

std::string QueryTrace::ToString() const {
  std::string out;
  char buf[96];
  for (size_t i = 0; i < size_; ++i) {
    std::snprintf(buf, sizeof(buf), "%s%s=%.3fms", i == 0 ? "" : " ",
                  spans_[i].stage,
                  static_cast<double>(spans_[i].duration_ns) / 1e6);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "%stotal=%.3fms", size_ == 0 ? "" : " ",
                static_cast<double>(total_ns()) / 1e6);
  out += buf;
  if (dropped_ > 0) {
    std::snprintf(buf, sizeof(buf), " (+%zu spans dropped)", dropped_);
    out += buf;
  }
  return out;
}

}  // namespace metrics
}  // namespace ipsketch
