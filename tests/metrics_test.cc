// Tests for the service metrics layer: counter/gauge/histogram semantics,
// log-bucket math, percentile edge cases, registry identity, the text/JSON
// renderers, QueryTrace, and a concurrent-recording stress that the TSAN CI
// job runs to prove the lock-free recording paths race-free.

#include "service/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace ipsketch {
namespace metrics {
namespace {

// --- bucket math -----------------------------------------------------------

TEST(BucketMath, SmallValuesAreExact) {
  for (uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(BucketIndex(v), v);
    EXPECT_EQ(BucketLowerBound(v), v);
  }
}

TEST(BucketMath, EveryValueFallsInsideItsBucket) {
  std::vector<uint64_t> probes = {4,    5,    7,    8,    15,   16,  17,
                                  100,  1000, 1023, 1024, 4096, 1u << 20,
                                  (1u << 20) + 17, 123456789};
  probes.push_back(uint64_t{1} << 39);
  for (uint64_t v : probes) {
    const size_t idx = BucketIndex(v);
    ASSERT_LT(idx, kNumBuckets);
    EXPECT_LE(BucketLowerBound(idx), v) << "v=" << v;
    if (idx + 1 < kNumBuckets) {
      EXPECT_LT(v, BucketLowerBound(idx + 1)) << "v=" << v;
    }
  }
}

TEST(BucketMath, BucketsAreMonotoneAndAtMost25PercentWide) {
  for (size_t idx = 0; idx + 1 < kNumBuckets; ++idx) {
    const uint64_t lo = BucketLowerBound(idx);
    const uint64_t hi = BucketLowerBound(idx + 1);
    ASSERT_LT(lo, hi) << "idx=" << idx;
    if (lo >= 4) {
      // Relative width (hi - lo) / lo ≤ 25%: one sub-bucket per quarter
      // power of two.
      EXPECT_LE(hi - lo, lo / 4 + 1) << "idx=" << idx;
    }
  }
}

TEST(BucketMath, HugeValuesLandInOverflowBucket) {
  EXPECT_EQ(BucketIndex(~uint64_t{0}), kNumBuckets - 1);
  EXPECT_EQ(BucketIndex(uint64_t{1} << 62), kNumBuckets - 1);
}

// --- counters and gauges ---------------------------------------------------

TEST(MetricsTest, CounterAccumulatesExactly) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(MetricsTest, CounterIsExactUnderConcurrency) {
  Counter c;
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (size_t i = 0; i < kPerThread; ++i) c.Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(MetricsTest, GaugeTracksSignedValue) {
  Gauge g;
  g.Add(5);
  g.Add(-8);
  EXPECT_EQ(g.Value(), -3);
  g.Set(17);
  EXPECT_EQ(g.Value(), 17);
}

// --- histogram percentiles -------------------------------------------------

TEST(MetricsTest, EmptyHistogramReportsZero) {
  Histogram h;
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.Percentile(50), 0.0);
  EXPECT_EQ(snap.Percentile(100), 0.0);
  EXPECT_EQ(snap.Mean(), 0.0);
}

TEST(MetricsTest, SingleSamplePercentilesClampToMax) {
  Histogram h;
  h.Record(1000);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_EQ(snap.Percentile(100), 1000.0);
  // Any percentile of one sample is that sample, to within the ≤ 25%
  // bucket-interpolation error (and never above the exact max).
  const double p50 = snap.Percentile(50);
  EXPECT_GE(p50, 750.0);
  EXPECT_LE(p50, 1000.0);
}

TEST(MetricsTest, UniformSamplesGiveSaneMedian) {
  Histogram h;
  for (uint64_t v = 1; v <= 10000; ++v) h.Record(v);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 10000u);
  EXPECT_EQ(snap.max, 10000u);
  EXPECT_NEAR(snap.Percentile(50), 5000.0, 5000.0 * 0.25);
  EXPECT_NEAR(snap.Percentile(99), 9900.0, 9900.0 * 0.25);
  EXPECT_EQ(snap.Percentile(100), 10000.0);
  EXPECT_NEAR(snap.Mean(), 5000.5, 0.01);
}

TEST(MetricsTest, OverflowBucketUsesExactMaxAsUpperEdge) {
  Histogram h;
  const uint64_t huge = uint64_t{1} << 62;
  h.Record(huge);
  h.Record(huge / 2);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.max, huge);
  // Both samples sit in the overflow bucket; percentiles must stay within
  // [lower bound of overflow, exact max] rather than extrapolating.
  const double p99 = snap.Percentile(99);
  EXPECT_LE(p99, static_cast<double>(huge));
  EXPECT_GE(p99, static_cast<double>(BucketLowerBound(kNumBuckets - 1)));
}

TEST(MetricsTest, HistogramSumAndCountAreExact) {
  Histogram h;
  uint64_t expect_sum = 0;
  for (uint64_t v : {0u, 1u, 3u, 17u, 1000u, 123456u}) {
    h.Record(v);
    expect_sum += v;
  }
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 6u);
  EXPECT_EQ(snap.sum, expect_sum);
}

// The TSAN-matrix stress: many threads hammer one histogram and one counter
// while a reader thread snapshots concurrently. Counts must be exact after
// the join, and no data race may be reported.
TEST(MetricsTest, ConcurrentRecordingIsRaceFreeAndExact) {
  Histogram h;
  Counter c;
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 5000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const HistogramSnapshot snap = h.Snapshot();
      ASSERT_LE(snap.count, kThreads * kPerThread);
      (void)c.Value();
    }
  });
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        h.Record(t * 1000 + i);
        c.Add(1);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
  EXPECT_EQ(h.Snapshot().count, kThreads * kPerThread);
}

// --- registry --------------------------------------------------------------

TEST(MetricsTest, RegistryReturnsSameInstrumentForSameName) {
  auto& registry = MetricsRegistry::Global();
  Counter& a = registry.GetCounter("ipsketch_test_identity_total", "help");
  Counter& b = registry.GetCounter("ipsketch_test_identity_total");
  EXPECT_EQ(&a, &b);
  Histogram& ha = registry.GetHistogram("ipsketch_test_identity_ns");
  Histogram& hb = registry.GetHistogram("ipsketch_test_identity_ns");
  EXPECT_EQ(&ha, &hb);
}

TEST(MetricsTest, RenderTextEmitsPrometheusShape) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("ipsketch_test_render_total", "a test counter")
      .Add(7);
  registry.GetGauge("ipsketch_test_render_gauge").Set(-2);
  registry.GetHistogram("ipsketch_test_render_ns").Record(100);
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("# HELP ipsketch_test_render_total a test counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ipsketch_test_render_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("ipsketch_test_render_total 7"), std::string::npos);
  EXPECT_NE(text.find("ipsketch_test_render_gauge -2"), std::string::npos);
  EXPECT_NE(text.find("ipsketch_test_render_ns_count 1"), std::string::npos);
  EXPECT_NE(text.find("ipsketch_test_render_ns_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
}

TEST(MetricsTest, RenderTextMergesEmbeddedLabels) {
  auto& registry = MetricsRegistry::Global();
  registry.GetGauge("ipsketch_test_labeled{shard=\"0\"}").Set(3);
  registry.GetGauge("ipsketch_test_labeled{shard=\"1\"}").Set(4);
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("ipsketch_test_labeled{shard=\"0\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("ipsketch_test_labeled{shard=\"1\"} 4"),
            std::string::npos);
  // One TYPE header for the base name, not one per labeled instance.
  const size_t first = text.find("# TYPE ipsketch_test_labeled gauge");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE ipsketch_test_labeled gauge", first + 1),
            std::string::npos);
}

TEST(MetricsTest, RenderJsonIsWellFormedAndCarriesValues) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("ipsketch_test_json_total").Add(3);
  registry.GetHistogram("ipsketch_test_json_ns").Record(2048);
  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"ipsketch_test_json_total\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"ipsketch_test_json_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // Balanced braces — cheap well-formedness check without a JSON parser.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (ch == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

// --- query trace -----------------------------------------------------------

TEST(QueryTraceTest, RecordsSpansAndTotals) {
  QueryTrace trace;
  trace.Add("sketch-query", 100, 1000);
  trace.Add("shard-scan", 1100, 5000);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_STREQ(trace.span(0).stage, "sketch-query");
  EXPECT_EQ(trace.span(1).duration_ns, 5000u);
  EXPECT_EQ(trace.total_ns(), 6000u);
  EXPECT_EQ(trace.dropped(), 0u);
  const std::string s = trace.ToString();
  EXPECT_NE(s.find("sketch-query="), std::string::npos);
  EXPECT_NE(s.find("total="), std::string::npos);
}

TEST(QueryTraceTest, DropsBeyondCapacityAndClears) {
  QueryTrace trace;
  for (size_t i = 0; i < QueryTrace::kMaxSpans + 3; ++i) {
    trace.Add("stage", i, 1);
  }
  EXPECT_EQ(trace.size(), QueryTrace::kMaxSpans);
  EXPECT_EQ(trace.dropped(), 3u);
  EXPECT_NE(trace.ToString().find("dropped"), std::string::npos);
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(QueryTraceTest, ScopedSpanOnNullTraceIsHarmless) {
  ScopedSpan span(nullptr, "noop");  // must not crash or read the clock
}

}  // namespace
}  // namespace metrics
}  // namespace ipsketch
