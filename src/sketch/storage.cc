#include "sketch/storage.h"

#include <cmath>
#include <limits>

#include "common/status.h"

namespace ipsketch {

namespace {

/// Shared clamp: m < 1 fits nothing; budgets beyond the representable
/// sample count (including +inf) saturate instead of invoking UB in the
/// cast.
size_t ClampSamples(double m) {
  if (m < 1.0) return 0;
  constexpr double kMaxSamples =
      static_cast<double>(std::numeric_limits<size_t>::max());
  if (m >= kMaxSamples) return std::numeric_limits<size_t>::max();
  return static_cast<size_t>(m);
}

}  // namespace

size_t SamplesForStorageWords(double storage_words, StorageClass storage_class) {
  // NaN and non-positive budgets fit nothing.
  if (std::isnan(storage_words) || storage_words <= 0.0) return 0;
  double m = 0.0;
  switch (storage_class) {
    case StorageClass::kLinear:
      m = storage_words;
      break;
    case StorageClass::kSampling:
      m = storage_words / 1.5;
      break;
    case StorageClass::kSamplingWithNorm:
      // Budgets below the one-word norm overhead make this negative; the
      // m < 1 guard below maps them to 0 instead of wrapping in the cast.
      m = (storage_words - 1.0) / 1.5;
      break;
    case StorageClass::kCompactSamplingWithNorm:
      m = storage_words - 1.0;
      break;
    case StorageClass::kBbitSamplingWithNorm:
      // Charged at the default b = 16: (16 + 32)/64 = 0.75 words/sample.
      return SamplesForBbitStorageWords(storage_words, 16);
  }
  return ClampSamples(m);
}

double StorageWordsForSamples(size_t m, StorageClass storage_class) {
  const double md = static_cast<double>(m);
  switch (storage_class) {
    case StorageClass::kLinear:
      return md;
    case StorageClass::kSampling:
      return 1.5 * md;
    case StorageClass::kSamplingWithNorm:
      return 1.5 * md + 1.0;
    case StorageClass::kCompactSamplingWithNorm:
      return md + 1.0;
    case StorageClass::kBbitSamplingWithNorm:
      return StorageWordsForBbitSamples(m, 16);
  }
  IPS_CHECK(false);
  return 0.0;
}

size_t SamplesForBbitStorageWords(double storage_words, uint32_t bits) {
  if (std::isnan(storage_words) || storage_words <= 0.0) return 0;
  const double per_sample = (static_cast<double>(bits) + 32.0) / 64.0;
  return ClampSamples((storage_words - 1.0) / per_sample);
}

double StorageWordsForBbitSamples(size_t m, uint32_t bits) {
  return (static_cast<double>(bits) + 32.0) / 64.0 *
             static_cast<double>(m) +
         1.0;
}

}  // namespace ipsketch
