#include "common/rng.h"

#include <cmath>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

namespace ipsketch {
namespace {

TEST(Mix64Test, Deterministic) {
  EXPECT_EQ(Mix64(12345), Mix64(12345));
  EXPECT_NE(Mix64(12345), Mix64(12346));
}

// Known answers. Every sketch byte, band key and stored catalog depends on
// these exact outputs, so they are pinned here rather than only compared
// between two generators.
TEST(Mix64Test, KnownAnswers) {
  EXPECT_EQ(Mix64(0), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(Mix64(1), 0x910A2DEC89025CC1ull);
  EXPECT_EQ(Mix64(0x0123456789ABCDEFull), 0x157A3807A48FAA9Dull);
  EXPECT_EQ(Mix64(~uint64_t{0}), 0xE4D971771B652C20ull);
  EXPECT_EQ(MixCombine(1, 2), 0xBCD9DBB49673066Bull);
  EXPECT_EQ(MixCombine(2, 1), 0xE06DD043328BD285ull);
  EXPECT_EQ(MixCombine(1, 2, 3), 0xD0734750FDE362B3ull);
  // The three-component form is the two-component one mixed once more,
  // which is what lets a caller hoist MixCombine(a, b) out of a loop.
  EXPECT_EQ(MixCombine(1, 2, 3), Mix64(MixCombine(1, 2) ^ 3));
}

TEST(Mix64Test, AvalancheFlipsManyBits) {
  // Flipping one input bit should flip roughly half the output bits.
  size_t total = 0;
  const int kTrials = 256;
  for (int t = 0; t < kTrials; ++t) {
    const uint64_t x = Mix64(t * 7919 + 13);
    const uint64_t y = Mix64((t * 7919 + 13) ^ (uint64_t{1} << (t % 64)));
    total += __builtin_popcountll(Mix64(x) ^ Mix64(y));
  }
  const double mean_flips = static_cast<double>(total) / kTrials;
  EXPECT_GT(mean_flips, 24.0);
  EXPECT_LT(mean_flips, 40.0);
}

TEST(Mix64Test, CombineOrderSensitive) {
  EXPECT_NE(MixCombine(1, 2), MixCombine(2, 1));
  EXPECT_NE(MixCombine(1, 2, 3), MixCombine(1, 3, 2));
  EXPECT_NE(MixCombine(1, 2, 3), MixCombine(3, 2, 1));
}

TEST(Mix64Test, CombineInjectiveOnSmallGrid) {
  std::unordered_set<uint64_t> seen;
  for (uint64_t a = 0; a < 64; ++a) {
    for (uint64_t b = 0; b < 64; ++b) {
      EXPECT_TRUE(seen.insert(MixCombine(a, b)).second)
          << "collision at (" << a << "," << b << ")";
    }
  }
}

TEST(UnitFromU64Test, RangeAndEndpoints) {
  EXPECT_EQ(UnitFromU64(0), 0.0);
  EXPECT_LT(UnitFromU64(~uint64_t{0}), 1.0);
  EXPECT_GE(UnitFromU64(uint64_t{1} << 63), 0.5 - 1e-12);
}

TEST(UnitFromU64Test, PositiveUnitNeverZero) {
  EXPECT_GT(PositiveUnitFromU64(0), 0.0);
  EXPECT_LE(PositiveUnitFromU64(~uint64_t{0}), 1.0);
}

TEST(UnitFromU64Test, KnownAnswers) {
  EXPECT_EQ(UnitFromU64(uint64_t{1} << 63), 0.5);
  EXPECT_EQ(UnitFromU64(~uint64_t{0}), 1.0 - 0x1.0p-53);
  EXPECT_EQ(PositiveUnitFromU64(0), 0x1.0p-53);
  EXPECT_EQ(PositiveUnitFromU64(uint64_t{1} << 63), 0.5 + 0x1.0p-53);
  EXPECT_EQ(PositiveUnitFromU64(~uint64_t{0}), 1.0);
  // The low 11 bits are dropped.
  EXPECT_EQ(PositiveUnitFromU64(0x7FF), 0x1.0p-53);
  EXPECT_EQ(PositiveUnitFromU64(0x800), 0x1.0p-52);
}

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  SplitMix64 a(99), b(99);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, KnownSequences) {
  SplitMix64 zero(0);
  // SplitMix64 draws Mix64 of its state, then advances it by the golden
  // increment: the first output from state 0 is Mix64(0).
  EXPECT_EQ(zero.Next(), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(zero.Next(), 0x6E789E6AA1B965F4ull);
  EXPECT_EQ(zero.Next(), 0x06C45D188009454Full);
  EXPECT_EQ(zero.Next(), 0xF88BB8A8724C81ECull);
  SplitMix64 fixed(1234567);
  EXPECT_EQ(fixed.Next(), 0x599ED017FB08FC85ull);
  EXPECT_EQ(fixed.Next(), 0x2C73F08458540FA5ull);
  EXPECT_EQ(fixed.Next(), 0x883EBCE5A3F27C77ull);
  EXPECT_EQ(fixed.Next(), 0x3FBEF740E9177B3Full);
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int diffs = 0;
  for (int i = 0; i < 16; ++i) diffs += (a.Next() != b.Next());
  EXPECT_EQ(diffs, 16);
}

TEST(XoshiroTest, Deterministic) {
  Xoshiro256StarStar a(7), b(7);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a(), b());
}

TEST(XoshiroTest, UnitMeanIsHalf) {
  Xoshiro256StarStar rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextUnit();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(XoshiroTest, UnitVarianceMatchesUniform) {
  Xoshiro256StarStar rng(13);
  double sum = 0, sum2 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.NextUnit();
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(XoshiroTest, BoundedStaysInRangeAndCoversAll) {
  Xoshiro256StarStar rng(17);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.NextBounded(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (int c : counts) EXPECT_GT(c, 800);  // each bucket near 1000
}

TEST(XoshiroTest, BoundedOneAlwaysZero) {
  Xoshiro256StarStar rng(19);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(XoshiroTest, GaussianMoments) {
  Xoshiro256StarStar rng(23);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(GeometricTest, PEqualsOneIsAlwaysOne) {
  EXPECT_EQ(GeometricFromUnit(0.5, 1.0), 1u);
  EXPECT_EQ(GeometricFromUnit(1e-9, 1.0), 1u);
}

TEST(GeometricTest, MinimumIsOne) {
  Xoshiro256StarStar rng(29);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(GeometricFromUnit(rng.NextPositiveUnit(), 0.3), 1u);
  }
}

TEST(GeometricTest, MeanIsOneOverP) {
  Xoshiro256StarStar rng(31);
  for (double p : {0.5, 0.1, 0.01}) {
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(
          GeometricFromUnit(rng.NextPositiveUnit(), p));
    }
    const double mean = sum / n;
    EXPECT_NEAR(mean, 1.0 / p, 0.05 / p) << "p=" << p;
  }
}

TEST(GeometricTest, SurvivalMatchesClosedForm) {
  // P(G > k) = (1-p)^k.
  Xoshiro256StarStar rng(37);
  const double p = 0.2;
  const int k = 5;
  int exceed = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (GeometricFromUnit(rng.NextPositiveUnit(), p) > static_cast<uint64_t>(k))
      ++exceed;
  }
  EXPECT_NEAR(static_cast<double>(exceed) / n, std::pow(1 - p, k), 0.01);
}

// Fixed, exactly representable (u, p) whose quotient log(u)/log1p(−p) is
// far from an integer, so the answer does not hinge on the last ulp of libm.
TEST(GeometricTest, KnownAnswers) {
  EXPECT_EQ(GeometricFromUnit(1.0, 0.5), 1u);  // log(1) = 0
  EXPECT_EQ(GeometricFromUnit(0.5, 1.0), 1u);  // p = 1
  EXPECT_EQ(GeometricFromUnit(0.9375, 0.5), 1u);
  EXPECT_EQ(GeometricFromUnit(0.375, 0.125), 8u);
  EXPECT_EQ(GeometricFromUnit(0x1.0p-10, 0x1.0p-4), 108u);
  EXPECT_EQ(GeometricFromUnit(0x1.0p-20, 0x1.0p-10), 14189u);
  // Quotient about 8.6e20: past the 9e18 guard.
  EXPECT_EQ(GeometricFromUnit(0x1.0p-1074, 0x1.0p-60), UINT64_MAX);
}

// The precomputed-log draw is the same function as GeometricFromUnit, bit
// for bit, across the whole range of p, including p = 1 and the overflow
// guard.
TEST(GeometricTest, PrecomputedLogMatchesGeometricFromUnit) {
  std::vector<double> units = {0x1.0p-1074, 1e-300, 1e-18, 1e-9, 0.001,
                               0.1,         0.375,  0.5,   0.9,  1.0};
  Xoshiro256StarStar rng(41);
  for (int i = 0; i < 200; ++i) units.push_back(rng.NextPositiveUnit());
  std::vector<double> ps = {0x1.0p-1074, 1e-300, 1e-18, 1e-12, 1e-6,
                            1e-4,        0.01,   0.25,  0.5,   0.999,
                            1.0 - 0x1.0p-53,     1.0};
  for (int i = 0; i < 50; ++i) ps.push_back(rng.NextPositiveUnit());
  for (double p : ps) {
    const double log_q = std::log1p(-p);
    for (double u : units) {
      ASSERT_EQ(GeometricFromUnitLogQ(u, log_q), GeometricFromUnit(u, p))
          << "u " << u << " p " << p;
    }
  }
}

TEST(GeometricTest, TinyPDoesNotOverflow) {
  const uint64_t g = GeometricFromUnit(1e-300, 1e-18);
  EXPECT_GT(g, uint64_t{1} << 40);  // astronomically large, but defined
}

}  // namespace
}  // namespace ipsketch
