// Scalar reference tier. This file *defines* the semantics of every kernel:
// the AVX2 tier reproduces these loops bit for bit by following the same
// 4-lane accumulation order (see estimate_kernels.h). It is also what every
// host without AVX2 runs.
//
// The lane structure below is deliberate, not an optimization: element i
// accumulates into lane i & 3 and the lanes reduce as (l0 + l1) + (l2 + l3),
// which is exactly the order a 4-wide vector accumulator produces.

#include "core/simd/estimate_kernels.h"

#include <algorithm>

namespace ipsketch {
namespace simd {
namespace {

/// kAccumLanes partial sums with the pinned reduction order.
struct Lanes {
  double l[kAccumLanes] = {0.0, 0.0, 0.0, 0.0};

  void Add(size_t i, double term) { l[i & 3] += term; }
  double Reduce() const { return (l[0] + l[1]) + (l[2] + l[3]); }
};

WmhPairStats WmhPair(const double* ha, const double* hb, const double* va,
                     const double* vb, size_t m) {
  WmhPairStats out;
  Lanes min_sum, match_sum;
  for (size_t i = 0; i < m; ++i) {
    min_sum.Add(i, std::min(ha[i], hb[i]));
    if (ha[i] == hb[i]) {
      const double q = std::min(va[i] * va[i], vb[i] * vb[i]);
      if (q > 0.0) {
        match_sum.Add(i, va[i] * vb[i] / q);
        ++out.match_count;
      }
    }
  }
  out.min_hash_sum = min_sum.Reduce();
  out.weighted_match_sum = match_sum.Reduce();
  return out;
}

MatchStats MatchU64(const uint64_t* fa, const uint64_t* fb, const double* va,
                    const double* vb, size_t m) {
  MatchStats out;
  Lanes match_sum;
  for (size_t i = 0; i < m; ++i) {
    if (fa[i] == fb[i]) {
      const double q = std::min(va[i] * va[i], vb[i] * vb[i]);
      if (q > 0.0) {
        match_sum.Add(i, va[i] * vb[i] / q);
        ++out.match_count;
      }
    }
  }
  out.weighted_match_sum = match_sum.Reduce();
  return out;
}

CompactPairStats CompactPair(const uint32_t* ha, const uint32_t* hb,
                             const float* va, const float* vb, size_t m) {
  CompactPairStats out;
  Lanes min_sum, match_sum;
  for (size_t i = 0; i < m; ++i) {
    min_sum.Add(i, DequantizeHash32(std::min(ha[i], hb[i])));
    if (ha[i] == hb[i]) {
      const double da = va[i];
      const double db = vb[i];
      const double q = std::min(da * da, db * db);
      if (q > 0.0) match_sum.Add(i, da * db / q);
    }
  }
  out.min_hash_sum = min_sum.Reduce();
  out.weighted_match_sum = match_sum.Reduce();
  return out;
}

MatchStats MatchU32(const uint32_t* fa, const uint32_t* fb, const float* va,
                    const float* vb, size_t m) {
  MatchStats out;
  Lanes match_sum;
  for (size_t i = 0; i < m; ++i) {
    if (fa[i] == fb[i]) {
      const double da = va[i];
      const double db = vb[i];
      const double q = std::min(da * da, db * db);
      if (q > 0.0) {
        match_sum.Add(i, da * db / q);
        ++out.match_count;
      }
    }
  }
  out.weighted_match_sum = match_sum.Reduce();
  return out;
}

MhPairStats MhPair(const double* ha, const double* hb, const double* va,
                   const double* vb, size_t m) {
  MhPairStats out;
  Lanes min_sum, match_sum;
  for (size_t i = 0; i < m; ++i) {
    min_sum.Add(i, std::min(ha[i], hb[i]));
    if (ha[i] == hb[i] && ha[i] < 1.0) {
      match_sum.Add(i, va[i] * vb[i]);
    }
  }
  out.min_hash_sum = min_sum.Reduce();
  out.match_sum = match_sum.Reduce();
  return out;
}

double SumF64(const double* x, size_t m) {
  Lanes sum;
  for (size_t i = 0; i < m; ++i) sum.Add(i, x[i]);
  return sum.Reduce();
}

double DotF64(const double* x, const double* y, size_t m) {
  Lanes sum;
  for (size_t i = 0; i < m; ++i) {
    const double p = x[i] * y[i];
    sum.Add(i, p);
  }
  return sum.Reduce();
}

}  // namespace

const EstimateKernel& ScalarKernel() {
  static constexpr EstimateKernel kScalar = {
      "scalar",  &WmhPair, &MatchU64, &CompactPair,
      &MatchU32, &MhPair,  &SumF64,   &DotF64,
  };
  return kScalar;
}

}  // namespace simd
}  // namespace ipsketch
