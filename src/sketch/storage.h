// The paper's storage accounting model (§5, "Storage Size").
//
// All plots are parameterized by storage measured in 64-bit words ("the
// total number of bits in the sketch divided by 64"):
//   * linear sketches (JL, CountSketch) store one 64-bit double per row or
//     counter → m words for m rows;
//   * sampling sketches (MH, KMV, WMH, ICWS) store one 64-bit double value
//     plus one 32-bit hash per sample → 1.5·m words for m samples (WMH and
//     ICWS additionally store the scalar norm: +1 word).

#ifndef IPSKETCH_SKETCH_STORAGE_H_
#define IPSKETCH_SKETCH_STORAGE_H_

#include <cstddef>
#include <cstdint>

namespace ipsketch {

/// Storage class of a sketching method.
enum class StorageClass {
  kLinear = 0,    ///< m doubles (JL, CountSketch)
  kSampling = 1,  ///< m (double value, 32-bit hash) pairs (MH, KMV)
  kSamplingWithNorm = 2,  ///< sampling + one norm scalar (WMH, ICWS)
  /// m (32-bit hash, float32 value) pairs + the norm: 1 word per sample
  /// (the "wmh_compact" family).
  kCompactSamplingWithNorm = 4,
  /// m (b-bit fingerprint, float32 value) pairs + the norm, charged at the
  /// default b = 16: 0.75 words per sample (the "wmh_bbit" family). The
  /// budget→samples mapping uses the default width; a sketch's own
  /// StorageWords() is exact for its actual b.
  kBbitSamplingWithNorm = 5,
};

/// Largest sample count m whose sketch fits in `storage_words` 64-bit words.
/// Returns 0 if the budget cannot fit even one sample.
size_t SamplesForStorageWords(double storage_words, StorageClass storage_class);

/// Exact storage in 64-bit words of an m-sample sketch of `storage_class`.
double StorageWordsForSamples(size_t m, StorageClass storage_class);

/// Budget mapping for the b-bit family at an *explicit* width: (b + 32)/64
/// words per sample + the norm. `kBbitSamplingWithNorm` is this at the
/// default b = 16; callers that know the actual width (the harness
/// evaluator with a `bits` param) must use these so a b > 16 sweep never
/// silently exceeds its storage budget. `bits` in [1, 32].
size_t SamplesForBbitStorageWords(double storage_words, uint32_t bits);
double StorageWordsForBbitSamples(size_t m, uint32_t bits);

}  // namespace ipsketch

#endif  // IPSKETCH_SKETCH_STORAGE_H_
