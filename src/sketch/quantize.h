// Quantized Weighted MinHash sketches — the paper's §5 future-work item
// ("Standard quantization tricks could likely be used to reduce the size of
// numbers in all sketches").
//
// Two compact encodings of a WmhSketch:
//
//   * CompactWmhSketch — hash as a 32-bit fixed-point fraction (exactly the
//     32 bits the paper's storage accounting charges) and value as float32:
//     1 word per sample instead of the 2 resident words of the
//     full-precision struct. True matches are preserved exactly (equal
//     doubles quantize equally); spurious matches need two distinct minima
//     within 2⁻³² of each other.
//
//   * BbitWmhSketch — in the spirit of b-bit minwise hashing (Li & König
//     2010): only a b-bit fingerprint of each minimum hash is kept for
//     match detection, plus a float32 value. Storage (b+32)/64 words per
//     sample. Fingerprints collide spuriously with probability 2⁻ᵇ, which
//     the estimator corrects for in the match *rate*; the weighted union
//     size is estimated with the unit-norm closed form (the FM estimator
//     needs full-precision minima, which b bits cannot carry).
//
// Both encodings carry the WmhEngine of the full-precision sketch they were
// quantized from: engines realize different hash functions, so — exactly as
// for full-precision sketches — compact sketches are only comparable across
// equal engines, and the estimators below reject cross-engine pairs.
//
// These types are first-class sketch families ("wmh_compact", "wmh_bbit" in
// sketch/family.h) with wire codecs in sketch/serialize.h, so the service
// layer can hold and persist compact catalogs; sketch_store.h's
// QuantizeStore converts a resident full-precision WMH catalog in one
// post-pass.

#ifndef IPSKETCH_SKETCH_QUANTIZE_H_
#define IPSKETCH_SKETCH_QUANTIZE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/wmh_sketch.h"

namespace ipsketch {

/// WMH sketch with 32-bit hashes and float32 values: 1 word/sample + norm.
struct CompactWmhSketch {
  std::vector<uint32_t> hashes;  ///< floor(h · 2³²); ~0u = empty sentinel
  std::vector<float> values;     ///< ã[j] as float32
  double norm = 0.0;
  uint64_t seed = 0;
  uint64_t L = 0;
  uint64_t dimension = 0;
  /// Engine of the full-precision sketch this was quantized from; compact
  /// sketches are only comparable across equal engines.
  WmhEngine engine = WmhEngine::kDart;

  size_t num_samples() const { return hashes.size(); }

  /// Storage in 64-bit words: (32+32) bits per sample + the norm. The
  /// resident layout matches the §5 accounting exactly, so this is also the
  /// in-memory footprint.
  double StorageWords() const {
    return static_cast<double>(num_samples()) + 1.0;
  }
};

/// Quantizes a full-precision WMH sketch (lossy). The engine, seed, L, and
/// dimension are carried over.
CompactWmhSketch CompactFromWmh(const WmhSketch& sketch);

/// Buffer-reusing form: quantizes into `*out`, reusing its vectors'
/// capacity (the per-thread sketcher path of the "wmh_compact" family).
void CompactFromWmh(const WmhSketch& sketch, CompactWmhSketch* out);

/// The first `m` samples as a valid m-sample compact sketch. Compact
/// sketches are coordinate-wise, so truncation is exact: it commutes with
/// quantization. Dies on m = 0 or m > num_samples (callers range-check).
CompactWmhSketch TruncatedCompactWmh(const CompactWmhSketch& sketch, size_t m);

/// Algorithm 5 on compact sketches: matches on quantized hashes, FM union
/// estimate from dequantized minima. Same compatibility rules as the
/// full-precision estimator, including engine equality.
Result<double> EstimateCompactWmhInnerProduct(const CompactWmhSketch& a,
                                              const CompactWmhSketch& b);

/// Span-level core of `EstimateCompactWmhInnerProduct`: the compact
/// estimator over raw hash/value lanes of two sketches the caller has
/// already verified to be mutually comparable. The pairwise estimator above
/// is a thin wrapper over it, so a caller holding the lanes in another
/// layout gets bit-identical estimates by calling this directly. `m` must
/// be positive.
Result<double> EstimateCompactWmhSpans(
    const uint32_t* a_hashes, const float* a_values, double a_norm,
    const uint32_t* b_hashes, const float* b_values, double b_norm, size_t m,
    uint64_t L);

/// WMH sketch keeping only b-bit match fingerprints (b ≤ 32).
struct BbitWmhSketch {
  std::vector<uint32_t> fingerprints;  ///< low b bits of a mixed hash of h
  std::vector<float> values;
  double norm = 0.0;
  uint32_t bits = 16;  ///< b
  uint64_t seed = 0;
  uint64_t L = 0;
  uint64_t dimension = 0;
  /// Engine of the full-precision sketch this was quantized from.
  WmhEngine engine = WmhEngine::kDart;

  size_t num_samples() const { return fingerprints.size(); }

  /// Storage in 64-bit words: (b + 32) bits per sample + the norm. The
  /// resident struct keeps fingerprints in uint32_t slots, so the in-memory
  /// footprint is num_samples + 1 words regardless of b (family
  /// ResidentWords reports that).
  double StorageWords() const {
    return static_cast<double>(num_samples()) * (bits + 32.0) / 64.0 + 1.0;
  }
};

/// Extracts b-bit fingerprints from a full-precision sketch. `bits` in
/// [1, 32]. The engine, seed, L, and dimension are carried over.
Result<BbitWmhSketch> BbitFromWmh(const WmhSketch& sketch, uint32_t bits);

/// Buffer-reusing form of BbitFromWmh.
Status BbitFromWmh(const WmhSketch& sketch, uint32_t bits,
                   BbitWmhSketch* out);

/// The first `m` samples as a valid m-sample b-bit sketch (exact, as for
/// TruncatedCompactWmh). Dies on m = 0 or m > num_samples.
BbitWmhSketch TruncatedBbitWmh(const BbitWmhSketch& sketch, size_t m);

/// Ok iff every fingerprint fits the sketch's declared b-bit width — the
/// single source of the invariant enforced both at insert time (the
/// "wmh_bbit" family's CheckCompatible) and on wire decode, so a store can
/// never persist a file its own decoder refuses to reopen. Precondition:
/// `sketch.bits` in [1, 32].
Status CheckBbitFingerprintWidths(const BbitWmhSketch& sketch);

/// Inner product estimate from b-bit sketches. The spurious-collision rate
/// 2⁻ᵇ is removed from the match statistics in expectation; residual noise
/// from false matches scales with 2⁻ᵇ (see bench_ext_quantization).
Result<double> EstimateBbitWmhInnerProduct(const BbitWmhSketch& a,
                                           const BbitWmhSketch& b);

/// Span-level core of `EstimateBbitWmhInnerProduct` (same contract as
/// `EstimateCompactWmhSpans`: callers have verified comparability, `m`
/// positive, and the pairwise estimator above is a thin wrapper over it).
/// `bits` is the fingerprint width b in [1, 32].
Result<double> EstimateBbitWmhSpans(
    const uint32_t* a_fingerprints, const float* a_values, double a_norm,
    const uint32_t* b_fingerprints, const float* b_values, double b_norm,
    size_t m, uint32_t bits);

}  // namespace ipsketch

#endif  // IPSKETCH_SKETCH_QUANTIZE_H_
