// The arithmetic the service benchmark reports with: nearest-rank
// percentiles (failed requests ranked after every completed one), the
// ten-samples-beyond rule, span self time, least-squares slopes, and metric
// name/unit validation. Pure functions; bench_math_test.cc covers each.

#ifndef SERVICEBENCH_BENCH_MATH_H_
#define SERVICEBENCH_BENCH_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace servicebench {

/// A percentile is reported only when at least this many samples rank
/// beyond it, so its value is not set by a handful of outliers.
inline constexpr size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of the q-th percentile (q in (0, 100]) among `n`
/// samples: ceil(q·n / 100), clamped to [1, n]. 0 when n == 0. q·n is
/// computed before the division so integral q·n is exact.
inline size_t NearestRank(size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n) / 100.0);
  if (rank < 1.0) return 1;
  if (rank > static_cast<double>(n)) return n;
  return static_cast<size_t>(rank);
}

/// Samples ranked strictly after the q-th percentile's sample.
inline size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

/// True iff the q-th percentile of `n` samples has at least
/// kMinSamplesBeyond samples beyond it.
inline bool PercentileSupported(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

/// Latencies of one request class. A failed request (shed, expired,
/// errored, or wrong) has no latency: it ranks as slower than every
/// completed request.
struct LatencySamples {
  std::vector<double> completed;
  size_t failed = 0;

  size_t count() const { return completed.size() + failed; }
};

/// Nearest-rank q-th percentile of `samples`. nullopt when there are no
/// samples or when the rank lands on a failed request (the percentile is
/// then unbounded).
inline std::optional<double> Percentile(LatencySamples samples, double q) {
  const size_t rank = NearestRank(samples.count(), q);
  if (rank == 0 || rank > samples.completed.size()) return std::nullopt;
  std::nth_element(samples.completed.begin(),
                   samples.completed.begin() + (rank - 1),
                   samples.completed.end());
  return samples.completed[rank - 1];
}

/// Middle value (mean of the two middle values for an even count); 0 for
/// an empty input.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// A half-open time interval [start, end) in nanoseconds.
struct Interval {
  uint64_t start = 0;
  uint64_t end = 0;
};

/// A span's self time: its duration minus the part of it that its child
/// spans cover. Children are clipped to the parent, and time covered by
/// several overlapping children is subtracted once.
inline uint64_t SelfTime(const Interval& parent, std::vector<Interval> children) {
  if (parent.end <= parent.start) return 0;
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  uint64_t covered = 0;
  uint64_t reach = parent.start;  // end of the covered prefix so far
  for (const Interval& c : children) {
    const uint64_t start = std::max(c.start, reach);
    const uint64_t end = std::min(c.end, parent.end);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return (parent.end - parent.start) - covered;
}

/// Least-squares line y = slope·x + intercept.
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
};

/// Fits a line through the points (xs[i], ys[i]). nullopt for fewer than
/// two points, mismatched lengths, or xs all equal.
inline std::optional<LineFit> FitLine(const std::vector<double>& xs,
                                      const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return std::nullopt;
  const double n = static_cast<double>(xs.size());
  double mean_x = 0.0, mean_y = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    mean_x += xs[i];
    mean_y += ys[i];
  }
  mean_x /= n;
  mean_y /= n;
  double sxx = 0.0, sxy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    sxx += (xs[i] - mean_x) * (xs[i] - mean_x);
    sxy += (xs[i] - mean_x) * (ys[i] - mean_y);
  }
  if (sxx == 0.0) return std::nullopt;
  LineFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = mean_y - fit.slope * mean_x;
  return fit;
}

inline bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

/// A metric name: 1–64 characters from [A-Za-z0-9_.-], starting with a
/// letter or digit.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// A metric unit: 1–16 characters from [A-Za-z0-9_/%.-].
inline bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

}  // namespace servicebench

#endif  // SERVICEBENCH_BENCH_MATH_H_
