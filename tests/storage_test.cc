#include "sketch/storage.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace ipsketch {
namespace {

TEST(StorageTest, LinearFamilyIsIdentity) {
  EXPECT_EQ(SamplesForStorageWords(400, StorageClass::kLinear), 400u);
  EXPECT_DOUBLE_EQ(StorageWordsForSamples(400, StorageClass::kLinear), 400.0);
}

TEST(StorageTest, SamplingChargesOnePointFiveWords) {
  // §5: "a sampling-based sketch with m samples takes 1.5x as much space as
  // a JL sketch with m rows".
  EXPECT_EQ(SamplesForStorageWords(400, StorageClass::kSampling), 266u);
  EXPECT_DOUBLE_EQ(StorageWordsForSamples(266, StorageClass::kSampling),
                   399.0);
  EXPECT_EQ(SamplesForStorageWords(3, StorageClass::kSampling), 2u);
}

TEST(StorageTest, SamplingWithNormReservesOneWord) {
  EXPECT_EQ(SamplesForStorageWords(400, StorageClass::kSamplingWithNorm),
            266u);
  EXPECT_DOUBLE_EQ(
      StorageWordsForSamples(266, StorageClass::kSamplingWithNorm), 400.0);
}

TEST(StorageTest, CompactSamplingChargesOneWordPlusNorm) {
  // The 32-bit compact encoding: (32+32) bits = 1 word per sample + norm.
  EXPECT_EQ(
      SamplesForStorageWords(400, StorageClass::kCompactSamplingWithNorm),
      399u);
  EXPECT_DOUBLE_EQ(
      StorageWordsForSamples(399, StorageClass::kCompactSamplingWithNorm),
      400.0);
  // One-sample boundary: a sample + the norm needs exactly 2 words.
  EXPECT_EQ(
      SamplesForStorageWords(1.999, StorageClass::kCompactSamplingWithNorm),
      0u);
  EXPECT_EQ(
      SamplesForStorageWords(2.0, StorageClass::kCompactSamplingWithNorm),
      1u);
}

TEST(StorageTest, BbitSamplingChargesAtDefaultWidth) {
  // Charged at b = 16: (16+32)/64 = 0.75 words per sample + the norm.
  EXPECT_EQ(SamplesForStorageWords(400, StorageClass::kBbitSamplingWithNorm),
            532u);
  EXPECT_DOUBLE_EQ(
      StorageWordsForSamples(532, StorageClass::kBbitSamplingWithNorm),
      400.0);
  EXPECT_EQ(
      SamplesForStorageWords(1.749, StorageClass::kBbitSamplingWithNorm),
      0u);
  EXPECT_EQ(SamplesForStorageWords(1.75, StorageClass::kBbitSamplingWithNorm),
            1u);
}

TEST(StorageTest, ExplicitBbitWidthMappingStaysWithinBudget) {
  // The enum charges the default b = 16; the explicit-width mapping must
  // agree there and never exceed budget at any other width — a b = 32
  // sweep through the default table would overshoot by a third.
  EXPECT_EQ(SamplesForBbitStorageWords(400, 16),
            SamplesForStorageWords(400, StorageClass::kBbitSamplingWithNorm));
  EXPECT_DOUBLE_EQ(StorageWordsForBbitSamples(532, 16), 400.0);
  for (uint32_t bits : {1u, 8u, 16u, 24u, 32u}) {
    for (double words : {2.0, 100.0, 400.0}) {
      const size_t m = SamplesForBbitStorageWords(words, bits);
      if (m > 0) {
        EXPECT_LE(StorageWordsForBbitSamples(m, bits), words + 1e-9)
            << "bits=" << bits << " words=" << words;
      }
    }
  }
  // b = 32 costs a full word per sample: (words − 1) samples, like compact.
  EXPECT_EQ(SamplesForBbitStorageWords(400, 32), 399u);
  EXPECT_EQ(SamplesForBbitStorageWords(0.0, 16), 0u);
  EXPECT_EQ(SamplesForBbitStorageWords(std::nan(""), 16), 0u);
}

TEST(StorageTest, RoundTripNeverExceedsBudget) {
  for (double words : {2.0, 10.0, 100.0, 400.0, 1000.0}) {
    for (auto family :
         {StorageClass::kLinear, StorageClass::kSampling,
          StorageClass::kSamplingWithNorm,
          StorageClass::kCompactSamplingWithNorm,
          StorageClass::kBbitSamplingWithNorm}) {
      const size_t m = SamplesForStorageWords(words, family);
      if (m > 0) {
        EXPECT_LE(StorageWordsForSamples(m, family), words + 1e-9)
            << "words=" << words << " family=" << static_cast<int>(family);
      }
    }
  }
}

TEST(StorageTest, TinyBudgetsYieldZeroSamples) {
  EXPECT_EQ(SamplesForStorageWords(0.0, StorageClass::kLinear), 0u);
  EXPECT_EQ(SamplesForStorageWords(-5.0, StorageClass::kLinear), 0u);
  EXPECT_EQ(SamplesForStorageWords(1.0, StorageClass::kSampling), 0u);
  EXPECT_EQ(SamplesForStorageWords(1.0, StorageClass::kSamplingWithNorm), 0u);
}

TEST(StorageTest, OneSampleBoundaryPerFamily) {
  // One sample costs exactly 1 word (linear), 1.5 (sampling), 2.5 (sampling
  // + norm). Just under fits nothing; exactly at fits the first sample.
  EXPECT_EQ(SamplesForStorageWords(0.999, StorageClass::kLinear), 0u);
  EXPECT_EQ(SamplesForStorageWords(1.0, StorageClass::kLinear), 1u);
  EXPECT_EQ(SamplesForStorageWords(1.499, StorageClass::kSampling), 0u);
  EXPECT_EQ(SamplesForStorageWords(1.5, StorageClass::kSampling), 1u);
  EXPECT_EQ(SamplesForStorageWords(2.499, StorageClass::kSamplingWithNorm),
            0u);
  EXPECT_EQ(SamplesForStorageWords(2.5, StorageClass::kSamplingWithNorm), 1u);
}

TEST(StorageTest, SubSampleBudgetsNeverUnderflow) {
  for (auto family :
       {StorageClass::kLinear, StorageClass::kSampling,
        StorageClass::kSamplingWithNorm,
        StorageClass::kCompactSamplingWithNorm,
        StorageClass::kBbitSamplingWithNorm}) {
    for (double words : {-1.0, 0.0, 0.25, 0.5, 0.9}) {
      EXPECT_EQ(SamplesForStorageWords(words, family), 0u)
          << "words=" << words << " family=" << static_cast<int>(family);
    }
  }
}

TEST(StorageTest, NanBudgetsYieldZero) {
  for (auto family :
       {StorageClass::kLinear, StorageClass::kSampling,
        StorageClass::kSamplingWithNorm,
        StorageClass::kCompactSamplingWithNorm,
        StorageClass::kBbitSamplingWithNorm}) {
    EXPECT_EQ(SamplesForStorageWords(std::nan(""), family), 0u);
  }
}

TEST(StorageTest, UnrepresentablyLargeBudgetsSaturate) {
  constexpr size_t kMax = std::numeric_limits<size_t>::max();
  for (auto family :
       {StorageClass::kLinear, StorageClass::kSampling,
        StorageClass::kSamplingWithNorm,
        StorageClass::kCompactSamplingWithNorm,
        StorageClass::kBbitSamplingWithNorm}) {
    // Casting a double >= 2^64 to size_t is UB; these must clamp instead.
    EXPECT_EQ(SamplesForStorageWords(1e30, family), kMax);
    EXPECT_EQ(SamplesForStorageWords(
                  std::numeric_limits<double>::infinity(), family),
              kMax);
  }
}

}  // namespace
}  // namespace ipsketch
