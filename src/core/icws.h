// Ioffe's Improved Consistent Weighted Sampling (ICWS, ICDM 2010) adapted to
// inner product estimation, plus a DartMinHash-accelerated variant.
//
// The paper notes (§5, "Efficient Weighted Hashing") that Consistent
// Weighted Sampling schemes are essentially equivalent to the expanded
// Weighted MinHash but computationally cheaper, and leaves their adaptation
// to inner product sketching as future work. This module implements that
// adaptation:
//
//   * Sketching costs O(nnz · m) with no discretization parameter at all —
//     ICWS samples index j with probability exactly proportional to the
//     continuous weight S_j = (a[j]/‖a‖)², and two sketches collide on a
//     sample with probability equal to the *weighted Jaccard similarity* of
//     the squared normalized vectors (the same collision law as Fact 5).
//   * The estimator mirrors Algorithm 5, but estimates the weighted union
//     size M = Σ max(ã², b̃²) through the closed form M = 2/(1 + J̄) (valid
//     because both weight vectors sum to 1) with J̄ estimated by the match
//     rate.
//
// Matches are detected by comparing a 64-bit fingerprint of the sampled
// (index, "consistent level" t_j) pair, which CWS guarantees is equal for
// both vectors precisely when they sample consistently.
//
// Two engines realize these semantics:
//
//   * kExact — Ioffe's scheme verbatim, O(nnz · m) per vector: the
//     continuous-weight reference.
//   * kDart — discretizes the weights with Algorithm 4 at a parameter L and
//     runs the dart engine (core/dart_minhash.h) over the expanded blocks,
//     expected O(nnz + m · log m) per vector: the default ingest engine.
//     The fingerprint is the bit pattern of the per-sample minimum hash,
//     which two coordinated sketches share exactly when they sampled the
//     same expanded slot; the collision law is the weighted Jaccard of the
//     *discretized* squared vectors, within O(1/L) of the continuous one.
//
// Engines realize different hash functions: sketches are only comparable
// across equal engines (and, for kDart, equal L) — enforced by the
// estimator and carried in the sketch.

#ifndef IPSKETCH_CORE_ICWS_H_
#define IPSKETCH_CORE_ICWS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/rounding.h"
#include "vector/sparse_vector.h"

namespace ipsketch {

/// Which engine realizes the ICWS sampling semantics. Numeric values are
/// wire-stable (sketch/serialize.cc stores them).
enum class IcwsEngine {
  kExact = 0,  ///< Ioffe's continuous scheme, O(nnz·m)
  kDart = 1,   ///< discretized dart engine, O(nnz + m·log m); default
};

/// Configuration for `SketchIcws`.
struct IcwsOptions {
  /// Number of samples m.
  size_t num_samples = 128;
  /// Random seed; sketches are comparable only with equal seeds.
  uint64_t seed = 0;
  /// Engine choice; see IcwsEngine.
  IcwsEngine engine = IcwsEngine::kExact;
  /// Discretization parameter for the kDart engine (Algorithm 4); 0 selects
  /// DefaultL(n). Ignored by kExact.
  uint64_t L = 0;

  /// Validates field ranges.
  Status Validate() const;
};

/// An ICWS inner product sketch: m (fingerprint, value) samples plus ‖a‖.
struct IcwsSketch {
  /// Fingerprint of the sampled (index, level) pair per sample; 0 for the
  /// empty sketch.
  std::vector<uint64_t> fingerprints;
  /// Normalized entry ã[j] = a[j]/‖a‖ at the sampled index, per sample (the
  /// discretized z̃[j] under kDart).
  std::vector<double> values;
  /// Euclidean norm of the original vector.
  double norm = 0.0;
  uint64_t seed = 0;
  uint64_t dimension = 0;
  /// Engine the sketch was built by; estimation requires equality.
  IcwsEngine engine = IcwsEngine::kExact;
  /// Resolved discretization parameter (kDart only; 0 under kExact).
  uint64_t L = 0;

  /// Number of samples m.
  size_t num_samples() const { return fingerprints.size(); }

  /// Storage in 64-bit words: one double + one 64-bit fingerprint per
  /// sample, + the norm. (A production system could store 32-bit
  /// fingerprints; we charge the same 1.5 words/sample as WMH so the
  /// methods are compared at equal budget.)
  double StorageWords() const {
    return 1.5 * static_cast<double>(num_samples()) + 1.0;
  }
};

/// Computes the ICWS sketch of `a`. The zero vector yields an empty sketch
/// (norm 0) that estimates 0 against anything.
Result<IcwsSketch> SketchIcws(const SparseVector& a, const IcwsOptions& options);

/// Reusable sketching context mirroring WmhSketcher: options validated
/// once, discretization scratch recycled across calls (kDart). NOT
/// thread-safe; concurrent ingest uses one sketcher per worker.
class IcwsSketcher {
 public:
  /// Validates `options` and builds a context. Fails like SketchIcws.
  static Result<IcwsSketcher> Make(const IcwsOptions& options);

  /// The options this context sketches with.
  const IcwsOptions& options() const { return options_; }

  /// Sketches `a` into `*out`, reusing its vectors' capacity.
  Status Sketch(const SparseVector& a, IcwsSketch* out);

 private:
  explicit IcwsSketcher(const IcwsOptions& options) : options_(options) {}

  IcwsOptions options_;
  DiscretizedVector scratch_;
  std::vector<double> hash_scratch_;
};

/// Estimates ⟨a, b⟩ from two ICWS sketches; see the module comment.
Result<double> EstimateIcwsInnerProduct(const IcwsSketch& a,
                                        const IcwsSketch& b);

/// Span-level core of `EstimateIcwsInnerProduct`: the match-rate estimator
/// over the raw fingerprint/value lanes of two sketches the caller has
/// already verified to be mutually comparable (equal m, seed, engine, L,
/// dimension). The pairwise estimator above is a thin wrapper over it, so a
/// caller holding the lanes in another layout gets bit-identical estimates
/// by calling this directly. `m` must be positive.
Result<double> EstimateIcwsSpans(
    const uint64_t* a_fingerprints, const double* a_values, double a_norm,
    const uint64_t* b_fingerprints, const double* b_values, double b_norm,
    size_t m);

/// Prefix truncation (first m samples), as with the other sampling sketches.
IcwsSketch TruncatedIcws(const IcwsSketch& sketch, size_t m);

}  // namespace ipsketch

#endif  // IPSKETCH_CORE_ICWS_H_
