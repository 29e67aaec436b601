// Algorithms 1 & 2: the unweighted (augmented) MinHash inner product sketch.
//
// For each of m independent hash functions h_i: {0..n−1} → [0,1), the sketch
// stores the minimum hash over a's support and the vector value at the
// argmin index. Matching minima across two sketches yield a uniform sample
// of the support intersection (Fact 3); Algorithm 2 turns the sample into an
// inner product estimate using a Flajolet–Martin union-size estimate:
//
//   Ũ   = m / Σ_i min(H_hash_a[i], H_hash_b[i]) − 1
//   est = (Ũ/m)·Σ_i 1[H_hash_a[i] = H_hash_b[i]]·H_val_a[i]·H_val_b[i]
//
// Theorem 4: for vectors with entries in [−c, c], m = O(1/ε²) samples give
// error ε·c²·√(max(|A|,|B|)·|A∩B|) — matching the binary-vector optimum of
// Pagh et al. (2014) but degrading with c² for heavy entries, which is what
// Weighted MinHash fixes.

#ifndef IPSKETCH_SKETCH_MINHASH_H_
#define IPSKETCH_SKETCH_MINHASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "vector/sparse_vector.h"

namespace ipsketch {

/// Configuration for `SketchMh`.
struct MhOptions {
  /// Number of samples m.
  size_t num_samples = 128;
  /// Random seed; sketches are comparable only with equal seeds.
  uint64_t seed = 0;
  /// Hash family (see HashKind). The default idealized mixing hash matches
  /// the analysis; kCarterWegman31 reproduces the paper's §5 practical
  /// choice.
  HashKind hash_kind = HashKind::kMixed64;

  /// Validates field ranges.
  Status Validate() const;
};

/// The sketch H_a = {H_hash, H_val} of Algorithm 1.
struct MhSketch {
  /// Minimum hash per sample, in [0, 1); 1.0 for the empty vector.
  std::vector<double> hashes;
  /// Vector value at the argmin index, per sample.
  std::vector<double> values;
  uint64_t seed = 0;
  uint64_t dimension = 0;
  HashKind hash_kind = HashKind::kMixed64;

  /// Number of samples m.
  size_t num_samples() const { return hashes.size(); }

  /// Storage in 64-bit words: one double + one 32-bit hash per sample.
  double StorageWords() const {
    return 1.5 * static_cast<double>(num_samples());
  }
};

/// Computes the augmented MinHash sketch of `a` (Algorithm 1).
Result<MhSketch> SketchMh(const SparseVector& a, const MhOptions& options);

/// Estimates ⟨a, b⟩ from two MinHash sketches (Algorithm 2).
Result<double> EstimateMhInnerProduct(const MhSketch& a, const MhSketch& b);

/// Span-level core of `EstimateMhInnerProduct`: Algorithm 2 over the raw
/// hash/value lanes of two sketches the caller has already verified to be
/// mutually comparable (equal m, seed, hash family, dimension). The
/// pairwise estimator above is a thin wrapper over it, so a caller holding
/// the lanes in another layout gets bit-identical estimates by calling this
/// directly. `m` must be positive.
Result<double> EstimateMhSpans(const double* a_hashes, const double* a_values,
                               const double* b_hashes, const double* b_values,
                               size_t m);

/// Prefix of the first m samples (a valid m-sample sketch).
MhSketch TruncatedMh(const MhSketch& sketch, size_t m);

}  // namespace ipsketch

#endif  // IPSKETCH_SKETCH_MINHASH_H_
