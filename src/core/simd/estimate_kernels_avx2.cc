// AVX2 tier: one 4-wide double accumulator per sum realizes the 4-lane
// contract of estimate_kernels.h directly; scalar tails continue the lane
// assignment (i & 3) so results stay bit-identical to the scalar tier.
//
// This translation unit is the only one compiled with -mavx2
// (CMakeLists.txt); everything here is internal-linkage except the
// Avx2Kernel() accessor, so no AVX2 code can leak into TUs that run on
// pre-AVX2 machines. Callers must check runtime support via dispatch.h.

#include "core/simd/estimate_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <bit>

namespace ipsketch {
namespace simd {
namespace {

double Reduce(const double l[4]) { return (l[0] + l[1]) + (l[2] + l[3]); }

/// Exact u32 → f64 of four packed values: bias to signed, convert, un-bias
/// (both steps exact — every u32 is exactly representable in double).
__m256d CvtU32ToF64(__m128i v) {
  const __m128i biased = _mm_xor_si128(v, _mm_set1_epi32(INT32_MIN));
  return _mm256_add_pd(_mm256_cvtepi32_pd(biased),
                       _mm256_set1_pd(2147483648.0));
}

/// The masked weighted-match term for four lanes: [eq ∧ q>0] va·vb/q, with
/// masked lanes contributing +0.0 and counted into *count. Masked-out lanes
/// divide by 1.0 instead of a possibly-zero q, so no spurious Inf/NaN is
/// ever formed; the AND then zeroes them.
__m256d WeightedTerm(__m256d eq, __m256d va, __m256d vb, uint64_t* count) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d ones = _mm256_set1_pd(1.0);
  const __m256d q = _mm256_min_pd(_mm256_mul_pd(va, va),
                                  _mm256_mul_pd(vb, vb));
  const __m256d qpos = _mm256_cmp_pd(q, zero, _CMP_GT_OQ);
  const __m256d mask = _mm256_and_pd(eq, qpos);
  const __m256d q_safe = _mm256_blendv_pd(ones, q, mask);
  const __m256d term = _mm256_div_pd(_mm256_mul_pd(va, vb), q_safe);
  *count += std::popcount(
      static_cast<unsigned>(_mm256_movemask_pd(mask)));
  return _mm256_and_pd(term, mask);
}

WmhPairStats WmhPair(const double* ha, const double* hb, const double* va,
                     const double* vb, size_t m) {
  __m256d min_acc = _mm256_setzero_pd();
  __m256d w_acc = _mm256_setzero_pd();
  uint64_t count = 0;
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m256d ha4 = _mm256_loadu_pd(ha + i);
    const __m256d hb4 = _mm256_loadu_pd(hb + i);
    min_acc = _mm256_add_pd(min_acc, _mm256_min_pd(ha4, hb4));
    const __m256d eq = _mm256_cmp_pd(ha4, hb4, _CMP_EQ_OQ);
    // Matches are the rare case in a full scan; when no lane matches the
    // weighted term is all +0.0, so skipping the divide block is both
    // bit-identical and the fast path.
    if (_mm256_movemask_pd(eq) == 0) continue;
    const __m256d va4 = _mm256_loadu_pd(va + i);
    const __m256d vb4 = _mm256_loadu_pd(vb + i);
    w_acc = _mm256_add_pd(w_acc, WeightedTerm(eq, va4, vb4, &count));
  }
  double min_l[4], w_l[4];
  _mm256_storeu_pd(min_l, min_acc);
  _mm256_storeu_pd(w_l, w_acc);
  for (; i < m; ++i) {
    min_l[i & 3] += std::min(ha[i], hb[i]);
    if (ha[i] == hb[i]) {
      const double q = std::min(va[i] * va[i], vb[i] * vb[i]);
      if (q > 0.0) {
        w_l[i & 3] += va[i] * vb[i] / q;
        ++count;
      }
    }
  }
  return {Reduce(min_l), Reduce(w_l), count};
}

MatchStats MatchU64(const uint64_t* fa, const uint64_t* fb, const double* va,
                    const double* vb, size_t m) {
  __m256d w_acc = _mm256_setzero_pd();
  uint64_t count = 0;
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m256i fa4 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fa + i));
    const __m256i fb4 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fb + i));
    const __m256d eq = _mm256_castsi256_pd(_mm256_cmpeq_epi64(fa4, fb4));
    if (_mm256_movemask_pd(eq) == 0) continue;  // no match: nothing to add
    const __m256d va4 = _mm256_loadu_pd(va + i);
    const __m256d vb4 = _mm256_loadu_pd(vb + i);
    w_acc = _mm256_add_pd(w_acc, WeightedTerm(eq, va4, vb4, &count));
  }
  double w_l[4];
  _mm256_storeu_pd(w_l, w_acc);
  for (; i < m; ++i) {
    if (fa[i] == fb[i]) {
      const double q = std::min(va[i] * va[i], vb[i] * vb[i]);
      if (q > 0.0) {
        w_l[i & 3] += va[i] * vb[i] / q;
        ++count;
      }
    }
  }
  return {Reduce(w_l), count};
}

CompactPairStats CompactPair(const uint32_t* ha, const uint32_t* hb,
                             const float* va, const float* vb, size_t m) {
  const __m256d ones = _mm256_set1_pd(1.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d two32 = _mm256_set1_pd(4294967296.0);
  __m256d min_acc = _mm256_setzero_pd();
  __m256d w_acc = _mm256_setzero_pd();
  uint64_t count = 0;  // discarded: compact stats carry no count
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m128i ha4 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ha + i));
    const __m128i hb4 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(hb + i));
    const __m128i minv = _mm_min_epu32(ha4, hb4);
    // Dequantize (q + 0.5)/2³², with the saturated sentinel pinned to 1.0.
    __m256d deq =
        _mm256_div_pd(_mm256_add_pd(CvtU32ToF64(minv), half), two32);
    const __m256i sent64 = _mm256_cvtepi32_epi64(
        _mm_cmpeq_epi32(minv, _mm_set1_epi32(-1)));
    deq = _mm256_blendv_pd(deq, ones, _mm256_castsi256_pd(sent64));
    min_acc = _mm256_add_pd(min_acc, deq);

    const __m128i eq32 = _mm_cmpeq_epi32(ha4, hb4);
    if (_mm_movemask_epi8(eq32) == 0) continue;  // no match: nothing to add
    const __m256d eq = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(eq32));
    const __m256d va4 = _mm256_cvtps_pd(_mm_loadu_ps(va + i));
    const __m256d vb4 = _mm256_cvtps_pd(_mm_loadu_ps(vb + i));
    w_acc = _mm256_add_pd(w_acc, WeightedTerm(eq, va4, vb4, &count));
  }
  double min_l[4], w_l[4];
  _mm256_storeu_pd(min_l, min_acc);
  _mm256_storeu_pd(w_l, w_acc);
  for (; i < m; ++i) {
    min_l[i & 3] += DequantizeHash32(std::min(ha[i], hb[i]));
    if (ha[i] == hb[i]) {
      const double da = va[i];
      const double db = vb[i];
      const double q = std::min(da * da, db * db);
      if (q > 0.0) w_l[i & 3] += da * db / q;
    }
  }
  return {Reduce(min_l), Reduce(w_l)};
}

MatchStats MatchU32(const uint32_t* fa, const uint32_t* fb, const float* va,
                    const float* vb, size_t m) {
  __m256d w_acc = _mm256_setzero_pd();
  uint64_t count = 0;
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m128i fa4 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(fa + i));
    const __m128i fb4 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(fb + i));
    const __m128i eq32 = _mm_cmpeq_epi32(fa4, fb4);
    if (_mm_movemask_epi8(eq32) == 0) continue;  // no match: nothing to add
    const __m256d eq = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(eq32));
    const __m256d va4 = _mm256_cvtps_pd(_mm_loadu_ps(va + i));
    const __m256d vb4 = _mm256_cvtps_pd(_mm_loadu_ps(vb + i));
    w_acc = _mm256_add_pd(w_acc, WeightedTerm(eq, va4, vb4, &count));
  }
  double w_l[4];
  _mm256_storeu_pd(w_l, w_acc);
  for (; i < m; ++i) {
    if (fa[i] == fb[i]) {
      const double da = va[i];
      const double db = vb[i];
      const double q = std::min(da * da, db * db);
      if (q > 0.0) {
        w_l[i & 3] += da * db / q;
        ++count;
      }
    }
  }
  return {Reduce(w_l), count};
}

MhPairStats MhPair(const double* ha, const double* hb, const double* va,
                   const double* vb, size_t m) {
  const __m256d ones = _mm256_set1_pd(1.0);
  __m256d min_acc = _mm256_setzero_pd();
  __m256d w_acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m256d ha4 = _mm256_loadu_pd(ha + i);
    const __m256d hb4 = _mm256_loadu_pd(hb + i);
    min_acc = _mm256_add_pd(min_acc, _mm256_min_pd(ha4, hb4));
    const __m256d eq = _mm256_cmp_pd(ha4, hb4, _CMP_EQ_OQ);
    const __m256d below1 = _mm256_cmp_pd(ha4, ones, _CMP_LT_OQ);
    const __m256d mask = _mm256_and_pd(eq, below1);
    if (_mm256_movemask_pd(mask) == 0) continue;  // no match: nothing to add
    const __m256d va4 = _mm256_loadu_pd(va + i);
    const __m256d vb4 = _mm256_loadu_pd(vb + i);
    const __m256d term = _mm256_mul_pd(va4, vb4);
    w_acc = _mm256_add_pd(w_acc, _mm256_and_pd(term, mask));
  }
  double min_l[4], w_l[4];
  _mm256_storeu_pd(min_l, min_acc);
  _mm256_storeu_pd(w_l, w_acc);
  for (; i < m; ++i) {
    min_l[i & 3] += std::min(ha[i], hb[i]);
    if (ha[i] == hb[i] && ha[i] < 1.0) {
      w_l[i & 3] += va[i] * vb[i];
    }
  }
  return {Reduce(min_l), Reduce(w_l)};
}

double SumF64(const double* x, size_t m) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  }
  double l[4];
  _mm256_storeu_pd(l, acc);
  for (; i < m; ++i) l[i & 3] += x[i];
  return Reduce(l);
}

double DotF64(const double* x, const double* y, size_t m) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  double l[4];
  _mm256_storeu_pd(l, acc);
  for (; i < m; ++i) l[i & 3] += x[i] * y[i];
  return Reduce(l);
}

}  // namespace

const EstimateKernel* Avx2Kernel() {
  static constexpr EstimateKernel kAvx2 = {
      "avx2",    &WmhPair, &MatchU64, &CompactPair,
      &MatchU32, &MhPair,  &SumF64,   &DotF64,
  };
  return &kAvx2;
}

}  // namespace simd
}  // namespace ipsketch

#else  // !defined(__AVX2__)

namespace ipsketch {
namespace simd {

const EstimateKernel* Avx2Kernel() { return nullptr; }

}  // namespace simd
}  // namespace ipsketch

#endif
