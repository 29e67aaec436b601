// The pairwise estimation kernels: the hot loops every estimator in the
// library runs over two coordinated sketches, expressed over raw spans so
// one interface serves its two implementation tiers behind runtime
// dispatch (dispatch.h): the scalar reference, which every host can run,
// and the AVX2 tier.
//
// Bit-identity contract
// ---------------------
// Every implementation of a kernel returns *bit-identical* results for the
// same inputs — the simd-equivalence CI job enforces this across compilers.
// Two rules make that possible:
//
//   1. Fixed reduction order. Floating-point accumulation is performed in
//      kAccumLanes = 4 independent partial sums; element i contributes to
//      lane i mod 4, and the final value is (l0 + l1) + (l2 + l3). The
//      scalar kernel implements this literally, and the 256-bit AVX2
//      kernel gets it for free from one 4-wide accumulator. With the order
//      pinned, every per-element operation left is an individually
//      correctly rounded IEEE op (add, mul, div, min, compare,
//      float→double), which vector units and scalar units compute
//      identically.
//   2. No contraction. The library builds with -ffp-contract=off
//      (CMakeLists.txt) and the AVX2 kernels use explicit mul/add — never
//      FMA — so gcc and clang cannot fuse a·b+c differently per path.
//
// Masked accumulation (e.g. "add va·vb/q only where the hashes match") is
// realized in vector code by adding +0.0 in masked-out lanes. That is
// bit-equivalent to skipping the addition: lane sums start at +0.0 and can
// never become -0.0 (IEEE round-to-nearest cancellation yields +0.0), and
// s + 0.0 == s bitwise for every such s. Guarded divisions substitute 1.0
// for the divisor in masked-out lanes, so no spurious Inf/NaN is ever
// computed. Inputs are assumed NaN-free (sketches never contain NaNs).
//
// The kernels cover:
//   * wmh_pair     — Algorithm 5's fused loop (core/wmh_estimator.cc):
//                    Σ min(h_a, h_b), Σ [h_a = h_b, q > 0] v_a·v_b/q with
//                    q = min(v_a², v_b²), and the q>0 match count.
//   * match_u64    — ICWS fingerprint match loop (core/icws.cc).
//   * compact_pair — 32-bit quantized WMH loop (sketch/quantize.cc): the
//                    min is taken in the integer domain, then dequantized
//                    as (q + 0.5)/2³² with the ~0u sentinel mapping to 1.0.
//   * match_u32    — b-bit fingerprint match loop (sketch/quantize.cc).
//   * mh_pair      — unweighted MinHash loop (sketch/minhash.cc): matches
//                    require h < 1.0 (the empty-sketch sentinel never
//                    matches) and accumulate v_a·v_b unscaled.
//   * sum_f64      — plain lane-ordered sum (KMV's pooled matched
//                    products, sketch/kmv.cc).
//   * dot_f64      — lane-ordered dot product (JL rows, CountSketch
//                    tables).
//
// Integer results (match counts) are exact and carry no ordering contract.

#ifndef IPSKETCH_CORE_SIMD_ESTIMATE_KERNELS_H_
#define IPSKETCH_CORE_SIMD_ESTIMATE_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace ipsketch {
namespace simd {

/// Number of independent accumulation lanes every kernel implementation
/// reduces over; part of the bit-identity contract (see file comment).
inline constexpr size_t kAccumLanes = 4;

/// Dequantization of a 32-bit fixed-point minimum hash: mid-point
/// (q + 0.5)/2³², with the saturated bucket — the empty-slot sentinel —
/// pinned back to exactly 1.0. The single source of truth for the inverse
/// of sketch/quantize.cc's QuantizeHash; the AVX2 tier's in-register
/// dequantization and its scalar tails must both agree with it bit for
/// bit. Declared `static` deliberately: each kernel TU compiles its own
/// internal-linkage copy with its own target flags, so the linker can
/// never substitute, say, an AVX-encoded copy into a TU that must run on
/// pre-AVX hardware.
static inline double DequantizeHash32(uint32_t q) {
  if (q == ~uint32_t{0}) return 1.0;
  return (static_cast<double>(q) + 0.5) / 4294967296.0;
}

/// Results of one fused pass over m full-precision WMH sample pairs.
struct WmhPairStats {
  double min_hash_sum = 0.0;        ///< Σ min(h_a[i], h_b[i])
  double weighted_match_sum = 0.0;  ///< Σ [match ∧ q>0] v_a·v_b/q
  uint64_t match_count = 0;         ///< #{i : match ∧ q > 0}
};

/// Results of a fingerprint-match pass (ICWS u64, b-bit u32).
struct MatchStats {
  double weighted_match_sum = 0.0;  ///< Σ [match ∧ q>0] v_a·v_b/q
  uint64_t match_count = 0;         ///< #{i : match ∧ q > 0}
};

/// Results of one pass over m compact (32-bit quantized) WMH pairs.
struct CompactPairStats {
  double min_hash_sum = 0.0;        ///< Σ Dequantize(min(h_a[i], h_b[i]))
  double weighted_match_sum = 0.0;  ///< Σ [match ∧ q>0] v_a·v_b/q
};

/// Results of one pass over m unweighted MinHash pairs.
struct MhPairStats {
  double min_hash_sum = 0.0;  ///< Σ min(h_a[i], h_b[i])
  double match_sum = 0.0;     ///< Σ [h_a = h_b < 1] v_a·v_b
};

/// One implementation tier: a table of kernel entry points. Instances are
/// immutable statics; estimators fetch the dispatched table once per call
/// via simd::ActiveKernel() (dispatch.h).
struct EstimateKernel {
  /// Tier name recorded in bench artifacts: "scalar" or "avx2".
  const char* name;

  WmhPairStats (*wmh_pair)(const double* ha, const double* hb,
                           const double* va, const double* vb, size_t m);

  MatchStats (*match_u64)(const uint64_t* fa, const uint64_t* fb,
                          const double* va, const double* vb, size_t m);

  CompactPairStats (*compact_pair)(const uint32_t* ha, const uint32_t* hb,
                                   const float* va, const float* vb,
                                   size_t m);

  MatchStats (*match_u32)(const uint32_t* fa, const uint32_t* fb,
                          const float* va, const float* vb, size_t m);

  MhPairStats (*mh_pair)(const double* ha, const double* hb,
                         const double* va, const double* vb, size_t m);

  /// Σ x[i].
  double (*sum_f64)(const double* x, size_t m);

  /// Σ x[i]·y[i] (mul then add — never fused).
  double (*dot_f64)(const double* x, const double* y, size_t m);
};

/// The scalar reference tier; always available, defines the semantics the
/// AVX2 tier must reproduce bit for bit, and is what every host without
/// AVX2 runs.
const EstimateKernel& ScalarKernel();

/// The AVX2 tier, or nullptr when not compiled in for this target (any
/// non-x86 build). Runtime CPU support is NOT checked here — use
/// dispatch.h's ActiveKernel() / AvailableKernels() for that.
const EstimateKernel* Avx2Kernel();

}  // namespace simd
}  // namespace ipsketch

#endif  // IPSKETCH_CORE_SIMD_ESTIMATE_KERNELS_H_
