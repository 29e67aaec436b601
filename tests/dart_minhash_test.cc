// The kDart engine's contract: exactly the Algorithm-3 semantics of the
// other engines — coordinated per-slot hashing of the expanded vector —
// under a different, faster hash function. The tests here check the three
// layers of that claim:
//
//   1. exact structural properties (union-min coordination, prefix
//      truncation, fallback consistency) that must hold bit-for-bit;
//   2. statistical equivalence with the kExpandedReference oracle at small
//      L (match rate against the closed-form weighted Jaccard, estimator
//      error distribution);
//   3. the same checks at production-scale L, where only kDart and
//      kActiveIndex can run, plus the fast-ICWS variant built on the same
//      kernel.
//
// Above all three sits bit identity: the production walk must reproduce a
// frozen reference walk bit for bit, because stored catalogs, band keys and
// the engine id all assume the hash function never moves.

#include "core/dart_minhash.h"

#include <bit>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/active_index.h"
#include "core/icws.h"
#include "core/rounding.h"
#include "core/wmh_estimator.h"
#include "core/wmh_sketch.h"
#include "vector/vector_ops.h"

namespace ipsketch {
namespace {

SparseVector RandomVector(uint64_t dim, size_t nnz, uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<Entry> entries;
  for (size_t i = 0; i < nnz; ++i) {
    double v = rng.NextGaussian();
    if (v == 0.0) v = 0.5;
    entries.push_back({i * (dim / nnz), v});
  }
  return SparseVector::MakeOrDie(dim, std::move(entries));
}

// A pair with substantial overlap: the first `shared` coordinates carry
// identical values, the rest are independent — so the true inner product is
// well away from zero and the match test has something to match.
std::pair<SparseVector, SparseVector> OverlappingPair(uint64_t dim,
                                                      size_t nnz,
                                                      size_t shared,
                                                      uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<Entry> ea, eb;
  for (size_t i = 0; i < nnz; ++i) {
    const uint64_t index = i * (dim / nnz);
    const double va = rng.NextGaussian() + 0.1;
    const double vb = rng.NextGaussian() + 0.1;
    ea.push_back({index, va});
    eb.push_back({index, i < shared ? va : vb});
  }
  return {SparseVector::MakeOrDie(dim, std::move(ea)),
          SparseVector::MakeOrDie(dim, std::move(eb))};
}

// --- exact structural properties -------------------------------------------

// Hand-built discretized vectors (the kernel reads entries only; reps need
// not sum to L here).
DiscretizedVector MakeDv(std::vector<DiscretizedEntry> entries) {
  DiscretizedVector dv;
  dv.dimension = 64;
  dv.L = 1024;
  dv.original_norm = 1.0;
  dv.entries = std::move(entries);
  return dv;
}

std::vector<double> DartHashes(const DiscretizedVector& dv, uint64_t seed,
                               size_t m, double theta,
                               std::vector<double>* values = nullptr) {
  std::vector<double> hashes(m), vals(m);
  SketchWithDartThreshold(dv, seed, m, theta, &hashes, &vals);
  if (values != nullptr) *values = vals;
  return hashes;
}

// The property the whole estimator rests on: the per-sample minimum of the
// union of two expanded vectors equals min of the two sketches' minima,
// exactly, because every slot hash is a pure function of
// (seed, sample, block, slot). Checked across thresholds that exercise the
// dart layer, the fallback layer, and the dense θ = 1 walk.
TEST(DartKernelTest, UnionMinIsExactlyElementwiseMin) {
  const auto dv_a = MakeDv({{3, 5, 0.5}, {10, 2, -0.25}});
  const auto dv_b = MakeDv({{3, 2, 0.5}, {10, 7, -0.25}, {20, 4, 0.125}});
  const auto dv_u = MakeDv({{3, 5, 0.5}, {10, 7, -0.25}, {20, 4, 0.125}});
  const size_t m = 128;
  for (double theta : {1.0, 0.25, 0.01, 1e-4}) {
    for (uint64_t seed : {0u, 7u, 99u}) {
      const auto ha = DartHashes(dv_a, seed, m, theta);
      const auto hb = DartHashes(dv_b, seed, m, theta);
      const auto hu = DartHashes(dv_u, seed, m, theta);
      for (size_t s = 0; s < m; ++s) {
        EXPECT_EQ(hu[s], std::min(ha[s], hb[s]))
            << "theta " << theta << " seed " << seed << " sample " << s;
      }
    }
  }
}

// Growing a block's repetition count only ever lowers its contribution
// (more occupied slots), and a changed minimum means the argmin moved into
// the extension — the truncation-coordination property that keeps sketches
// of different vectors comparable.
TEST(DartKernelTest, BlockPrefixTruncationIsCoordinated) {
  const size_t m = 64;
  for (double theta : {0.3, 0.02, 1e-4}) {
    std::vector<double> prev =
        DartHashes(MakeDv({{5, 1, 1.0}}), 42, m, theta);
    for (uint64_t reps : {2u, 3u, 8u, 64u, 1024u}) {
      const auto cur = DartHashes(MakeDv({{5, reps, 1.0}}), 42, m, theta);
      for (size_t s = 0; s < m; ++s) {
        EXPECT_LE(cur[s], prev[s]) << "reps " << reps << " sample " << s;
      }
      prev = cur;
    }
  }
}

TEST(DartKernelTest, HashesAreInUnitIntervalEvenUnderFallback) {
  // θ = 1e-4 leaves nearly every sample uncovered, forcing the fallback
  // layer; every hash must stay in (0, 1] and map above θ.
  const auto dv = MakeDv({{1, 3, 1.0}, {9, 2, -0.5}});
  const auto hashes = DartHashes(dv, 3, 256, 1e-4);
  size_t fallback = 0;
  for (double h : hashes) {
    EXPECT_GT(h, 0.0);
    EXPECT_LE(h, 1.0);
    if (h > 1e-4) ++fallback;
  }
  EXPECT_GT(fallback, 200u);  // the tiny threshold covers almost nothing
}

TEST(DartKernelTest, ThresholdFormula) {
  // θ = (ln m + 4)/L, clamped to 1.
  EXPECT_NEAR(DartThreshold(128, 4096),
              (std::log(128.0) + 4.0) / 4096.0, 1e-15);
  EXPECT_EQ(DartThreshold(128, 2), 1.0);
  // Production-scale L drives θ — and with it the dart count — down.
  EXPECT_LT(DartThreshold(256, 1 << 20) * (1 << 20) * 256.0, 3000.0);
}

// --- bit identity with the reference walk ------------------------------------

// The dart walk as first written, kept verbatim as the reference: every gap
// through its own copy of the original GeometricFromUnit (which recomputes
// log1p(−θ) per draw), the three-argument MixCombine stream key, and
// 128-bit positions for every block. It shares the mixers and unit maps
// (which rng_test pins by known answers) and the fallback layer's
// ActiveIndexBlockMin with the library. A production walk that moves one
// hash or value bit against it changes the hash function, which needs a new
// engine id, not a rewrite.
constexpr uint64_t kReferenceDartStreamTag = 0xDA27DA27DA27DA27ull;
constexpr uint64_t kReferenceDartFallbackTag = 0xFA11BAC4FA11BAC4ull;

uint64_t ReferenceGeometric(double u, double p) {
  if (p >= 1.0) return 1;
  const double g = std::floor(std::log(u) / std::log1p(-p));
  if (g >= 9.0e18) return UINT64_MAX;
  return static_cast<uint64_t>(g) + 1;
}

void ReferenceDartSketch(const DiscretizedVector& dv, uint64_t seed,
                         size_t num_samples, double theta,
                         std::vector<double>* hashes,
                         std::vector<double>* values) {
  const size_t m = num_samples;
  if (dv.entries.empty()) {
    for (size_t s = 0; s < m; ++s) {
      (*hashes)[s] = 1.0;
      (*values)[s] = 0.0;
    }
    return;
  }
  for (size_t s = 0; s < m; ++s) {
    (*hashes)[s] = 2.0;
    (*values)[s] = 0.0;
  }
  size_t covered = 0;
  for (const DiscretizedEntry& e : dv.entries) {
    SplitMix64 rng(MixCombine(seed, kReferenceDartStreamTag, e.index));
    const unsigned __int128 span =
        static_cast<unsigned __int128>(e.reps) * m;
    unsigned __int128 pos =
        ReferenceGeometric(PositiveUnitFromU64(rng.Next()), theta);
    pos -= 1;
    while (pos < span) {
      const double hit = theta * PositiveUnitFromU64(rng.Next());
      const size_t s = static_cast<size_t>(pos % m);
      if (hit < (*hashes)[s]) {
        if ((*hashes)[s] > 1.0) ++covered;
        (*hashes)[s] = hit;
        (*values)[s] = e.value;
      }
      pos += ReferenceGeometric(PositiveUnitFromU64(rng.Next()), theta);
    }
  }
  if (covered == m) return;
  const uint64_t fallback_seed = MixCombine(seed, kReferenceDartFallbackTag);
  for (size_t s = 0; s < m; ++s) {
    if ((*hashes)[s] <= 1.0) continue;
    double best_v = 2.0;
    double best_value = 0.0;
    for (const DiscretizedEntry& e : dv.entries) {
      const double v = ActiveIndexBlockMin(fallback_seed, s, e.index, e.reps);
      if (v < best_v) {
        best_v = v;
        best_value = e.value;
      }
    }
    (*hashes)[s] = theta + (1.0 - theta) * best_v;
    (*values)[s] = best_value;
  }
}

// Sketches `dv` with both walks and compares every hash and value bit.
// `covered`, if given, receives how many samples the dart layer reached
// (hash ≤ θ), so a caller can show the walk it meant to test ran at all.
::testing::AssertionResult MatchesReference(const DiscretizedVector& dv,
                                            uint64_t seed, size_t m,
                                            double theta,
                                            size_t* covered = nullptr) {
  std::vector<double> ref_hashes(m), ref_values(m), hashes(m), values(m);
  ReferenceDartSketch(dv, seed, m, theta, &ref_hashes, &ref_values);
  SketchWithDartThreshold(dv, seed, m, theta, &hashes, &values);
  if (covered != nullptr) *covered = 0;
  for (size_t s = 0; s < m; ++s) {
    if (std::bit_cast<uint64_t>(hashes[s]) !=
            std::bit_cast<uint64_t>(ref_hashes[s]) ||
        std::bit_cast<uint64_t>(values[s]) !=
            std::bit_cast<uint64_t>(ref_values[s])) {
      return ::testing::AssertionFailure()
             << "sample " << s << " of m " << m << " at theta " << theta
             << " seed " << seed << ": (" << hashes[s] << ", " << values[s]
             << ") vs reference (" << ref_hashes[s] << ", " << ref_values[s]
             << ")";
    }
    if (covered != nullptr && hashes[s] <= theta) ++*covered;
  }
  return ::testing::AssertionSuccess();
}

// A heavy-tailed vector (one entry in ten scaled 25×) rounded at L, so
// repetition counts spread over several orders of magnitude.
DiscretizedVector RandomDiscretized(uint64_t L, size_t nnz, uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  const uint64_t dim = uint64_t{1} << 24;
  std::vector<Entry> entries;
  for (size_t i = 0; i < nnz; ++i) {
    double v = rng.NextGaussian();
    if (v == 0.0) v = 1.0;
    if (rng.NextUnit() < 0.1) v *= 25.0;
    entries.push_back({i * (dim / nnz) + rng.NextBounded(dim / nnz), v});
  }
  return Round(SparseVector::MakeOrDie(dim, std::move(entries)), L).value();
}

const size_t kBitIdentitySamples[] = {1, 3, 64, 128, 256};

// The dense walk (θ = 1), a mid threshold, and θ = 1e-4, where at L = 512
// almost every sample falls through to the fallback layer. The empty vector
// rides along at every threshold.
TEST(DartBitIdentityTest, MatchesReferenceAtFixedThresholds) {
  for (double theta : {1.0, 0.25, 1e-4}) {
    for (size_t m : kBitIdentitySamples) {
      EXPECT_TRUE(MatchesReference(MakeDv({}), 5, m, theta));
      for (uint64_t trial = 0; trial < 12; ++trial) {
        const uint64_t L = trial % 2 == 0 ? 64 : 512;
        const auto dv = RandomDiscretized(L, 1 + trial * 5, 100 + trial);
        EXPECT_TRUE(MatchesReference(dv, trial * 7919, m, theta))
            << "trial " << trial;
      }
    }
  }
}

// The threshold the service sketches at: L = DefaultL(2^24) = 2^32, with
// query-sized and heavy catalog vectors.
TEST(DartBitIdentityTest, MatchesReferenceAtServiceThreshold) {
  const uint64_t L = DefaultL(uint64_t{1} << 24);
  for (size_t m : kBitIdentitySamples) {
    const double theta = DartThreshold(m, L);
    for (size_t nnz : {1u, 10u, 150u, 2000u}) {
      for (uint64_t trial = 0; trial < 24; ++trial) {
        const auto dv = RandomDiscretized(L, nnz, 1000 * nnz + trial);
        EXPECT_TRUE(MatchesReference(dv, 42 + trial, m, theta))
            << "nnz " << nnz << " trial " << trial;
      }
    }
  }
}

// Blocks whose span reps·m reaches 2^64 take the 128-bit walk; the ones
// just below take the 64-bit walk with span up to 2^64 − 1. Thresholds near
// 1e-18 keep each block to about a hundred darts, and every case must reach
// some samples through the dart layer.
TEST(DartBitIdentityTest, MatchesReferenceAroundSixtyFourBitSpans) {
  struct Case {
    size_t m;
    uint64_t reps;
    double theta;
  };
  const uint64_t kMax = ~uint64_t{0};
  const Case cases[] = {
      {64, uint64_t{1} << 60, 1e-18},  // span 2^66: about 74 darts
      {256, uint64_t{1} << 58, 1e-18},
      {3, kMax / 3, 1e-17},            // span 2^64 − 1: the 64-bit walk
      {3, kMax / 3 + 1, 1e-17},        // span 2^64 + 2: the 128-bit walk
      {1, kMax, 1e-17},
      {128, kMax, 1e-20},              // span ≈ 2^71
  };
  for (const Case& c : cases) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      const auto dv = MakeDv({{7, c.reps, 0.5}, {9, 1, -0.25}});
      size_t covered = 0;
      EXPECT_TRUE(MatchesReference(dv, seed, c.m, c.theta, &covered))
          << "m " << c.m << " reps " << c.reps;
      EXPECT_GT(covered, 0u) << "m " << c.m << " reps " << c.reps;
    }
  }
}

TEST(DartEngineTest, CrossEngineEstimationIsRejected) {
  const auto v = RandomVector(512, 32, 1);
  WmhOptions dart, active;
  dart.num_samples = active.num_samples = 16;
  dart.L = active.L = 4096;
  dart.engine = WmhEngine::kDart;
  active.engine = WmhEngine::kActiveIndex;
  const auto sd = SketchWmh(v, dart).value();
  const auto sa = SketchWmh(v, active).value();
  EXPECT_EQ(EstimateWmhInnerProduct(sd, sa).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sd.engine, WmhEngine::kDart);
  EXPECT_EQ(sa.engine, WmhEngine::kActiveIndex);
}

// --- statistical equivalence with the oracle at small L ---------------------

// Match rate: for coordinated Weighted MinHash, P[hash_a[s] == hash_b[s]]
// is the weighted Jaccard similarity of the discretized vectors (Fact 5).
// Both the oracle and the dart engine must concentrate on the same exact
// value, computed in integer arithmetic by rounding.h.
TEST(DartEquivalenceTest, MatchRateMatchesExactWeightedJaccardSmallL) {
  const uint64_t kL = 512;
  const auto [a, b] = OverlappingPair(4096, 48, 24, 5);
  const double exact_j =
      WeightedJaccard(Round(a, kL).value(), Round(b, kL).value()).value();

  const size_t m = 64;
  const int kSeeds = 150;
  size_t matches_dart = 0, matches_ref = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    WmhOptions o;
    o.num_samples = m;
    o.seed = static_cast<uint64_t>(seed);
    o.L = kL;
    o.engine = WmhEngine::kDart;
    const auto da = SketchWmh(a, o).value();
    const auto db = SketchWmh(b, o).value();
    o.engine = WmhEngine::kExpandedReference;
    const auto ra = SketchWmh(a, o).value();
    const auto rb = SketchWmh(b, o).value();
    for (size_t s = 0; s < m; ++s) {
      matches_dart += (da.hashes[s] == db.hashes[s]);
      matches_ref += (ra.hashes[s] == rb.hashes[s]);
    }
  }
  const double n = static_cast<double>(m) * kSeeds;
  const double rate_dart = static_cast<double>(matches_dart) / n;
  const double rate_ref = static_cast<double>(matches_ref) / n;
  // 5σ of a Bernoulli(J) mean over n trials.
  const double tol = 5.0 * std::sqrt(exact_j * (1.0 - exact_j) / n);
  EXPECT_NEAR(rate_dart, exact_j, tol);
  EXPECT_NEAR(rate_ref, exact_j, tol);
}

// Estimator error: across many seeds, the dart engine's inner product
// estimates must be unbiased around the true value and carry the same
// error scale as the oracle's — the engines differ in hash function, not
// in distribution.
TEST(DartEquivalenceTest, EstimatorErrorIndistinguishableFromOracleSmallL) {
  const uint64_t kL = 512;
  const auto [a, b] = OverlappingPair(4096, 48, 28, 11);
  const double truth = Dot(a, b);
  ASSERT_GT(std::fabs(truth), 1e-6);

  const size_t m = 64;
  const int kSeeds = 200;
  double sum_dart = 0.0, sum_sq_dart = 0.0;
  double sum_ref = 0.0, sum_sq_ref = 0.0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    WmhOptions o;
    o.num_samples = m;
    o.seed = static_cast<uint64_t>(seed);
    o.L = kL;
    o.engine = WmhEngine::kDart;
    const double err_dart =
        EstimateWmhInnerProduct(SketchWmh(a, o).value(),
                                SketchWmh(b, o).value())
            .value() -
        truth;
    o.engine = WmhEngine::kExpandedReference;
    const double err_ref =
        EstimateWmhInnerProduct(SketchWmh(a, o).value(),
                                SketchWmh(b, o).value())
            .value() -
        truth;
    sum_dart += err_dart;
    sum_sq_dart += err_dart * err_dart;
    sum_ref += err_ref;
    sum_sq_ref += err_ref * err_ref;
  }
  const double mean_dart = sum_dart / kSeeds;
  const double mean_ref = sum_ref / kSeeds;
  const double rmse_dart = std::sqrt(sum_sq_dart / kSeeds);
  const double rmse_ref = std::sqrt(sum_sq_ref / kSeeds);

  // Means within 5 standard errors of zero (Theorem 2: nearly unbiased).
  EXPECT_LT(std::fabs(mean_dart), 5.0 * rmse_dart / std::sqrt(1.0 * kSeeds));
  EXPECT_LT(std::fabs(mean_ref), 5.0 * rmse_ref / std::sqrt(1.0 * kSeeds));
  // Error scales agree: the RMSE ratio concentrates at 1 with ~10%
  // sampling noise at 200 trials; 1.35 is a >5σ band.
  EXPECT_LT(rmse_dart / rmse_ref, 1.35);
  EXPECT_LT(rmse_ref / rmse_dart, 1.35);
}

// --- production L -----------------------------------------------------------

// At L = 2^20 the oracle cannot run; the dart engine must agree with the
// active-index engine (and with the exact weighted Jaccard) instead.
TEST(DartEquivalenceTest, ProductionLMatchRateAndErrorAgreeWithActiveIndex) {
  const uint64_t kL = 1 << 20;
  const auto [a, b] = OverlappingPair(1 << 16, 64, 32, 17);
  const double truth = Dot(a, b);
  const double exact_j =
      WeightedJaccard(Round(a, kL).value(), Round(b, kL).value()).value();

  const size_t m = 256;
  const int kSeeds = 50;
  size_t matches_dart = 0, matches_active = 0;
  double sum_sq_dart = 0.0, sum_sq_active = 0.0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    WmhOptions o;
    o.num_samples = m;
    o.seed = static_cast<uint64_t>(seed);
    o.L = kL;
    o.engine = WmhEngine::kDart;
    const auto da = SketchWmh(a, o).value();
    const auto db = SketchWmh(b, o).value();
    o.engine = WmhEngine::kActiveIndex;
    const auto aa = SketchWmh(a, o).value();
    const auto ab = SketchWmh(b, o).value();
    for (size_t s = 0; s < m; ++s) {
      matches_dart += (da.hashes[s] == db.hashes[s]);
      matches_active += (aa.hashes[s] == ab.hashes[s]);
    }
    const double ed = EstimateWmhInnerProduct(da, db).value() - truth;
    const double ea = EstimateWmhInnerProduct(aa, ab).value() - truth;
    sum_sq_dart += ed * ed;
    sum_sq_active += ea * ea;
  }
  const double n = static_cast<double>(m) * kSeeds;
  const double tol = 5.0 * std::sqrt(exact_j * (1.0 - exact_j) / n);
  EXPECT_NEAR(static_cast<double>(matches_dart) / n, exact_j, tol);
  EXPECT_NEAR(static_cast<double>(matches_active) / n, exact_j, tol);
  const double rmse_ratio =
      std::sqrt(sum_sq_dart / sum_sq_active);
  EXPECT_LT(rmse_ratio, 1.5);
  EXPECT_GT(rmse_ratio, 1.0 / 1.5);
}

// --- the fast-ICWS variant ---------------------------------------------------

TEST(IcwsDartTest, DeterministicAndCarriesEngineIdentity) {
  const auto v = RandomVector(512, 32, 3);
  IcwsOptions o;
  o.num_samples = 32;
  o.seed = 9;
  o.engine = IcwsEngine::kDart;
  o.L = 4096;
  const auto s1 = SketchIcws(v, o).value();
  const auto s2 = SketchIcws(v, o).value();
  EXPECT_EQ(s1.fingerprints, s2.fingerprints);
  EXPECT_EQ(s1.values, s2.values);
  EXPECT_EQ(s1.engine, IcwsEngine::kDart);
  EXPECT_EQ(s1.L, 4096u);

  // Values come from the discretized support.
  const auto dv = Round(v, 4096).value();
  for (double value : s1.values) {
    bool found = false;
    for (const auto& e : dv.entries) {
      if (std::fabs(e.value - value) < 1e-15) found = true;
    }
    EXPECT_TRUE(found);
  }

  // The sketcher context produces bit-identical sketches to the one-shot
  // entry point (scratch reuse must not change results).
  auto sketcher = IcwsSketcher::Make(o).value();
  IcwsSketch via_sketcher;
  ASSERT_TRUE(sketcher.Sketch(v, &via_sketcher).ok());
  EXPECT_EQ(via_sketcher.fingerprints, s1.fingerprints);
  EXPECT_EQ(via_sketcher.values, s1.values);
}

TEST(IcwsDartTest, CrossEngineAndCrossLEstimationIsRejected) {
  const auto v = RandomVector(512, 32, 4);
  IcwsOptions exact;
  exact.num_samples = 16;
  IcwsOptions dart = exact;
  dart.engine = IcwsEngine::kDart;
  dart.L = 4096;
  const auto se = SketchIcws(v, exact).value();
  const auto sd = SketchIcws(v, dart).value();
  EXPECT_EQ(EstimateIcwsInnerProduct(se, sd).status().code(),
            StatusCode::kInvalidArgument);
  dart.L = 8192;
  const auto sd2 = SketchIcws(v, dart).value();
  EXPECT_EQ(EstimateIcwsInnerProduct(sd, sd2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(IcwsDartTest, EstimatesAgreeWithExactIcwsStatistically) {
  const auto [a, b] = OverlappingPair(4096, 48, 28, 23);
  const double truth = Dot(a, b);
  ASSERT_GT(std::fabs(truth), 1e-6);

  const int kSeeds = 150;
  double sum_dart = 0.0, sum_sq_dart = 0.0;
  double sum_exact = 0.0, sum_sq_exact = 0.0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    IcwsOptions o;
    o.num_samples = 64;
    o.seed = static_cast<uint64_t>(seed);
    o.engine = IcwsEngine::kDart;
    o.L = 1 << 16;
    const double err_dart =
        EstimateIcwsInnerProduct(SketchIcws(a, o).value(),
                                 SketchIcws(b, o).value())
            .value() -
        truth;
    o.engine = IcwsEngine::kExact;
    o.L = 0;
    const double err_exact =
        EstimateIcwsInnerProduct(SketchIcws(a, o).value(),
                                 SketchIcws(b, o).value())
            .value() -
        truth;
    sum_dart += err_dart;
    sum_sq_dart += err_dart * err_dart;
    sum_exact += err_exact;
    sum_sq_exact += err_exact * err_exact;
  }
  const double rmse_dart = std::sqrt(sum_sq_dart / kSeeds);
  const double rmse_exact = std::sqrt(sum_sq_exact / kSeeds);
  EXPECT_LT(std::fabs(sum_dart / kSeeds),
            5.0 * rmse_dart / std::sqrt(1.0 * kSeeds));
  EXPECT_LT(rmse_dart / rmse_exact, 1.5);
  EXPECT_LT(rmse_exact / rmse_dart, 1.5);
}

TEST(IcwsDartTest, EmptyVectorAndTruncation) {
  IcwsOptions o;
  o.num_samples = 8;
  o.engine = IcwsEngine::kDart;
  const SparseVector zero = SparseVector::FromDense(std::vector<double>(8, 0.0));
  const auto s = SketchIcws(zero, o).value();
  EXPECT_EQ(s.norm, 0.0);
  for (uint64_t fp : s.fingerprints) EXPECT_EQ(fp, 0u);

  const auto v = RandomVector(512, 16, 6);
  const auto full = SketchIcws(v, o).value();
  const auto half = TruncatedIcws(full, 4);
  EXPECT_EQ(half.num_samples(), 4u);
  EXPECT_EQ(half.engine, full.engine);
  EXPECT_EQ(half.L, full.L);
}

}  // namespace
}  // namespace ipsketch
