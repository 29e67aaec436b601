// The benchmark's own trace: one span around every public call it makes
// into the service in a traced run. Spans are kept in memory and written
// out as JSON lines when the run ends; per-layer metrics are computed from
// them (self time = duration minus the part child spans cover).

#ifndef SERVICEBENCH_SPANS_H_
#define SERVICEBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_math.h"
#include "common/mutex.h"
#include "service/metrics.h"

namespace servicebench {

/// One timed call. `parent` is 0 for a root span; spans of one request
/// share `request`.
struct Span {
  const char* name = "";  ///< static string, e.g. "index.probe_shard"
  uint64_t start_ns = 0;  ///< metrics::NowNs() clock
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;

  uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Thread-safe in-memory span store. Untraced code passes a null SpanLog*
/// instead, and pays one branch per instrumented call.
class SpanLog {
 public:
  SpanLog() = default;
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// A fresh span id (never 0).
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Add(const Span& span) {
    ipsketch::MutexLock lock(&mu_);
    spans_.push_back(span);
  }

  /// A copy of every span recorded so far.
  std::vector<Span> spans() const {
    ipsketch::MutexLock lock(&mu_);
    return spans_;
  }

  /// Writes one JSON object per span. False on I/O failure.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    for (const Span& s : spans()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                   "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                   s.name, static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<uint64_t> next_id_{1};
  // kLeaf: held only for the vector push/copy; nothing nests under it.
  mutable ipsketch::Mutex mu_{ipsketch::LockRank::kLeaf};
  std::vector<Span> spans_ IPS_GUARDED_BY(mu_);
};

/// Times its scope as one span (nothing when the log is null).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent,
             uint64_t request)
      : log_(log) {
    if (log_ == nullptr) return;
    span_.name = name;
    span_.id = log_->NewId();
    span_.parent = parent;
    span_.request = request;
    span_.start_ns = ipsketch::metrics::NowNs();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    span_.end_ns = ipsketch::metrics::NowNs();
    log_->Add(span_);
  }

  /// This span's id, for children (0 when not recording).
  uint64_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
};

/// Self time of every span, keyed by span id.
inline std::unordered_map<uint64_t, uint64_t> SelfTimes(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<Interval>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::unordered_map<uint64_t, uint64_t> self;
  self.reserve(spans.size());
  for (const Span& s : spans) {
    auto it = children.find(s.id);
    self[s.id] = SelfTime({s.start_ns, s.end_ns},
                          it == children.end() ? std::vector<Interval>{}
                                               : it->second);
  }
  return self;
}

}  // namespace servicebench

#endif  // SERVICEBENCH_SPANS_H_
