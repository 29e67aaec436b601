// Tests for servicebench/bench_math.h. A plain main() so the benchmark
// package needs nothing beyond the compiler:
//
//   python3 servicebench/run.py --self-test

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_math.h"

using namespace servicebench;

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestNearestRank() {
  EXPECT(NearestRank(0, 50) == 0);
  EXPECT(NearestRank(1, 50) == 1);
  EXPECT(NearestRank(1, 99) == 1);
  EXPECT(NearestRank(10, 50) == 5);
  EXPECT(NearestRank(11, 50) == 6);
  // 99·1000/100 is exactly 990; computing 0.99·1000 first would give 991.
  EXPECT(NearestRank(1000, 99) == 990);
  EXPECT(NearestRank(1001, 99) == 991);
  EXPECT(NearestRank(100, 100) == 100);
  EXPECT(NearestRank(100, 0.001) == 1);
}

void TestTenBeyondRule() {
  // p99 needs n - ceil(0.99 n) >= 10, first true at n = 1000.
  EXPECT(SamplesBeyond(1000, 99) == 10);
  EXPECT(PercentileSupported(1000, 99));
  EXPECT(!PercentileSupported(999, 99));
  EXPECT(SamplesBeyond(999, 99) == 9);
  // p50 needs n - ceil(n/2) >= 10: n = 20 works, n = 19 does not.
  EXPECT(PercentileSupported(20, 50));
  EXPECT(!PercentileSupported(19, 50));
  EXPECT(!PercentileSupported(0, 50));
}

void TestPercentile() {
  LatencySamples s;
  for (int i = 100; i >= 1; --i) s.completed.push_back(i);
  EXPECT(Percentile(s, 50).has_value() && Near(*Percentile(s, 50), 50));
  EXPECT(Near(*Percentile(s, 99), 99));
  EXPECT(Near(*Percentile(s, 100), 100));
  EXPECT(!Percentile(LatencySamples{}, 50).has_value());
}

void TestFailedRankLast() {
  // 95 completed (1..95 ms) and 5 failed: failed requests occupy ranks
  // 96..100, so p95 is still a completed request but p96 and p99 are not.
  LatencySamples s;
  for (int i = 1; i <= 95; ++i) s.completed.push_back(i);
  s.failed = 5;
  EXPECT(s.count() == 100);
  EXPECT(Percentile(s, 95).has_value() && Near(*Percentile(s, 95), 95));
  EXPECT(!Percentile(s, 96).has_value());
  EXPECT(!Percentile(s, 99).has_value());
  // Failures shift the median up: with 50 failed out of 100, p50 is the
  // slowest completed request, and p51 is unbounded.
  LatencySamples half;
  for (int i = 1; i <= 50; ++i) half.completed.push_back(i);
  half.failed = 50;
  EXPECT(Near(*Percentile(half, 50), 50));
  EXPECT(!Percentile(half, 51).has_value());
  // All failed: nothing is bounded.
  LatencySamples none;
  none.failed = 3;
  EXPECT(!Percentile(none, 1).has_value());
}

void TestMedian() {
  EXPECT(Near(Median({}), 0));
  EXPECT(Near(Median({3}), 3));
  EXPECT(Near(Median({5, 1, 3}), 3));
  EXPECT(Near(Median({4, 1, 3, 2}), 2.5));
}

void TestSelfTime() {
  const Interval parent{100, 200};
  EXPECT(SelfTime(parent, {}) == 100);
  // Disjoint children.
  EXPECT(SelfTime(parent, {{110, 120}, {150, 170}}) == 70);
  // Overlapping children count once: [110,140) ∪ [130,160) = 50.
  EXPECT(SelfTime(parent, {{130, 160}, {110, 140}}) == 50);
  // A child nested inside another adds nothing.
  EXPECT(SelfTime(parent, {{110, 190}, {120, 130}}) == 20);
  // Children are clipped to the parent.
  EXPECT(SelfTime(parent, {{50, 120}, {180, 260}}) == 60);
  // A child outside the parent covers none of it.
  EXPECT(SelfTime(parent, {{10, 90}, {210, 300}}) == 100);
  // Full cover leaves no self time.
  EXPECT(SelfTime(parent, {{100, 150}, {150, 200}}) == 0);
  // Degenerate parent.
  EXPECT(SelfTime({200, 100}, {{150, 160}}) == 0);
}

void TestFitLine() {
  const auto fit = FitLine({1, 2, 3, 4}, {5, 7, 9, 11});
  EXPECT(fit.has_value() && Near(fit->slope, 2) && Near(fit->intercept, 3));
  // Least squares through noisy points: slope of (0,0),(1,1),(2,1),(3,2)
  // is 0.6, intercept 0.1.
  const auto noisy = FitLine({0, 1, 2, 3}, {0, 1, 1, 2});
  EXPECT(noisy.has_value() && Near(noisy->slope, 0.6) &&
         Near(noisy->intercept, 0.1));
  EXPECT(!FitLine({1}, {1}).has_value());
  EXPECT(!FitLine({2, 2, 2}, {1, 2, 3}).has_value());
  EXPECT(!FitLine({1, 2}, {1}).has_value());
}

void TestMetricNames() {
  EXPECT(ValidMetricName("topk_p99_ms"));
  EXPECT(ValidMetricName("engine.span.sketch-query_us"));
  EXPECT(ValidMetricName("9lives"));
  EXPECT(!ValidMetricName(""));
  EXPECT(!ValidMetricName("_leading_underscore"));
  EXPECT(!ValidMetricName(".leading_dot"));
  EXPECT(!ValidMetricName("has space"));
  EXPECT(!ValidMetricName("slash/name"));
  EXPECT(!ValidMetricName("quote\"d"));
  EXPECT(ValidMetricName(std::string(64, 'a')));
  EXPECT(!ValidMetricName(std::string(65, 'a')));
  EXPECT(ValidUnit("ms"));
  EXPECT(ValidUnit("1/s"));
  EXPECT(ValidUnit("%"));
  EXPECT(ValidUnit("ns/nnz"));
  EXPECT(!ValidUnit(""));
  EXPECT(!ValidUnit("µs"));
  EXPECT(!ValidUnit("seventeen-chars-x"));
}

}  // namespace

int main() {
  TestNearestRank();
  TestTenBeyondRule();
  TestPercentile();
  TestFailedRankLast();
  TestMedian();
  TestSelfTime();
  TestFitLine();
  TestMetricNames();
  if (g_failures != 0) {
    std::printf("%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("bench_math_test: all checks passed\n");
  return 0;
}
