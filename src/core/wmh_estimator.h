// Algorithm 5: estimating ⟨a, b⟩ from two Weighted MinHash sketches.
//
// Given W_a = {W_hash_a, W_val_a, ‖a‖} and W_b built with identical
// (m, seed, L):
//
//   q_i  = min(W_val_a[i]², W_val_b[i]²)
//   M̃    = (1/L)·(m / Σ_i min(W_hash_a[i], W_hash_b[i]) − 1)       (line 2)
//   I    = (M̃/m)·Σ_i 1[W_hash_a[i] = W_hash_b[i]]·W_val_a[i]·W_val_b[i]/q_i
//   est  = ‖a‖·‖b‖·I                                               (line 4)
//
// M̃ is the Flajolet–Martin-style estimate of the weighted union size
// M = Σ_j max(ã[j]², b̃[j]²) (Lemma 1 applied to the expanded supports).
// Theorem 2: with m = O(log(1/δ)/ε²) samples the error is at most
// ε·max(‖a_I‖‖b‖, ‖a‖‖b_I‖) with probability 1 − δ.

#ifndef IPSKETCH_CORE_WMH_ESTIMATOR_H_
#define IPSKETCH_CORE_WMH_ESTIMATOR_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "core/wmh_sketch.h"

namespace ipsketch {

/// How the weighted union size M is estimated from the sketches.
enum class UnionEstimator {
  /// Paper's Algorithm 5 line 2: the Flajolet–Martin estimator
  /// m / Σ min(h_a, h_b) − 1, divided by L.
  kFlajoletMartin = 0,
  /// Closed form from the match rate: for unit vectors
  /// M = 2 / (1 + J̄) where J̄ is the weighted Jaccard similarity, estimated
  /// by the fraction of matching samples. Not part of the paper's analysis;
  /// provided as an ablation (bench_ablation_union).
  kJaccardClosedForm = 1,
};

/// Options for `EstimateWmhInnerProduct`.
struct WmhEstimateOptions {
  UnionEstimator union_estimator = UnionEstimator::kFlajoletMartin;
};

/// Estimates ⟨a, b⟩ from two WMH sketches (Algorithm 5).
///
/// Fails with InvalidArgument if the sketches were built with different
/// sample counts, seeds, L, or dimensions. If either sketch is of the zero
/// vector the estimate is exactly 0.
Result<double> EstimateWmhInnerProduct(
    const WmhSketch& a, const WmhSketch& b,
    const WmhEstimateOptions& options = WmhEstimateOptions());

/// Span-level core of `EstimateWmhInnerProduct`: Algorithm 5 over the raw
/// hash/value lanes of two sketches the caller has already verified to be
/// mutually comparable (equal m, seed, L, engine, dimension). The pairwise
/// estimator above is a thin wrapper over it, so a caller holding the lanes
/// in another layout gets bit-identical estimates by calling this directly.
/// `m` must be positive.
Result<double> EstimateWmhSpans(
    const double* a_hashes, const double* a_values, double a_norm,
    const double* b_hashes, const double* b_values, double b_norm, size_t m,
    uint64_t L, const WmhEstimateOptions& options = WmhEstimateOptions());

/// A prefix of a WMH sketch: the first `m` samples, which are themselves a
/// valid m-sample sketch (samples are i.i.d. across hash functions). Used to
/// evaluate many storage budgets from one sketching pass. `m` must not
/// exceed the sketch's sample count.
WmhSketch TruncatedWmh(const WmhSketch& sketch, size_t m);

}  // namespace ipsketch

#endif  // IPSKETCH_CORE_WMH_ESTIMATOR_H_
