// Kernel-level equivalence and edge-case coverage for the estimation
// kernels (core/simd/estimate_kernels.h): every vector tier available on
// this machine must return results bit-identical to the scalar tier, for
// lengths below / at / astride the vector width, all-match and zero-match
// inputs, q = 0 pairs, and compact-sentinel hashes. A plain sequential
// reference (no lane structure) additionally pins the numeric semantics.

#include "core/simd/estimate_kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/simd/dispatch.h"

namespace ipsketch {
namespace simd {
namespace {

// Lengths below one vector width (1..3), at it (4), astride it, and long.
const size_t kSizes[] = {1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64, 67, 128, 259};

/// Exact-bits equality: distinguishes ±0.0 and would catch any reduction
/// re-ordering EXPECT_DOUBLE_EQ's ULP tolerance would forgive.
void ExpectSameBits(double expected, double actual, const char* what,
                    const char* tier, size_t m) {
  EXPECT_EQ(std::bit_cast<uint64_t>(expected), std::bit_cast<uint64_t>(actual))
      << what << " differs on tier '" << tier << "' at m=" << m << ": "
      << expected << " vs " << actual;
}

struct PairInputs {
  std::vector<double> ha, hb, va, vb;
  std::vector<uint64_t> fa, fb;
  std::vector<uint32_t> qa, qb;  // u32 hashes / fingerprints
  std::vector<float> sa, sb;     // float values
};

/// Randomized inputs with forced structure: ~40% exact matches, some zero
/// values (q = 0 at a match), some 1.0 / sentinel hashes.
PairInputs MakeInputs(size_t m, uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  PairInputs in;
  for (size_t i = 0; i < m; ++i) {
    const double h = rng.NextUnit();
    const bool match = rng.NextUnit() < 0.4;
    const bool zero_value = rng.NextUnit() < 0.15;
    const bool sentinel = rng.NextUnit() < 0.1;
    in.ha.push_back(sentinel ? 1.0 : h);
    in.hb.push_back(match ? in.ha.back() : rng.NextUnit());
    in.va.push_back(zero_value ? 0.0 : rng.NextGaussian());
    in.vb.push_back(rng.NextGaussian());
    const uint64_t f = rng();
    in.fa.push_back(f);
    in.fb.push_back(match ? f : rng());
    const uint32_t q = static_cast<uint32_t>(rng());
    in.qa.push_back(sentinel ? ~uint32_t{0} : q);
    in.qb.push_back(match ? in.qa.back()
                          : static_cast<uint32_t>(rng()));
    in.sa.push_back(zero_value ? 0.0f : static_cast<float>(rng.NextGaussian()));
    in.sb.push_back(static_cast<float>(rng.NextGaussian()));
  }
  return in;
}

void CheckAllKernelsAgree(const PairInputs& in, size_t m, uint64_t seed) {
  const EstimateKernel& scalar = ScalarKernel();
  const WmhPairStats wmh_ref =
      scalar.wmh_pair(in.ha.data(), in.hb.data(), in.va.data(),
                      in.vb.data(), m);
  const MatchStats u64_ref = scalar.match_u64(
      in.fa.data(), in.fb.data(), in.va.data(), in.vb.data(), m);
  const CompactPairStats compact_ref = scalar.compact_pair(
      in.qa.data(), in.qb.data(), in.sa.data(), in.sb.data(), m);
  const MatchStats u32_ref = scalar.match_u32(
      in.qa.data(), in.qb.data(), in.sa.data(), in.sb.data(), m);
  const MhPairStats mh_ref = scalar.mh_pair(in.ha.data(), in.hb.data(),
                                            in.va.data(), in.vb.data(), m);

  for (const EstimateKernel* kernel : AvailableKernels()) {
    SCOPED_TRACE(std::string("tier=") + kernel->name + " m=" +
                 std::to_string(m) + " seed=" + std::to_string(seed));
    const WmhPairStats wmh = kernel->wmh_pair(
        in.ha.data(), in.hb.data(), in.va.data(), in.vb.data(), m);
    ExpectSameBits(wmh_ref.min_hash_sum, wmh.min_hash_sum,
                   "wmh_pair.min_hash_sum", kernel->name, m);
    ExpectSameBits(wmh_ref.weighted_match_sum, wmh.weighted_match_sum,
                   "wmh_pair.weighted_match_sum", kernel->name, m);
    EXPECT_EQ(wmh_ref.match_count, wmh.match_count);

    const MatchStats u64 = kernel->match_u64(
        in.fa.data(), in.fb.data(), in.va.data(), in.vb.data(), m);
    ExpectSameBits(u64_ref.weighted_match_sum, u64.weighted_match_sum,
                   "match_u64.weighted_match_sum", kernel->name, m);
    EXPECT_EQ(u64_ref.match_count, u64.match_count);

    const CompactPairStats compact = kernel->compact_pair(
        in.qa.data(), in.qb.data(), in.sa.data(), in.sb.data(), m);
    ExpectSameBits(compact_ref.min_hash_sum, compact.min_hash_sum,
                   "compact_pair.min_hash_sum", kernel->name, m);
    ExpectSameBits(compact_ref.weighted_match_sum,
                   compact.weighted_match_sum,
                   "compact_pair.weighted_match_sum", kernel->name, m);

    const MatchStats u32 = kernel->match_u32(
        in.qa.data(), in.qb.data(), in.sa.data(), in.sb.data(), m);
    ExpectSameBits(u32_ref.weighted_match_sum, u32.weighted_match_sum,
                   "match_u32.weighted_match_sum", kernel->name, m);
    EXPECT_EQ(u32_ref.match_count, u32.match_count);

    const MhPairStats mh = kernel->mh_pair(
        in.ha.data(), in.hb.data(), in.va.data(), in.vb.data(), m);
    ExpectSameBits(mh_ref.min_hash_sum, mh.min_hash_sum,
                   "mh_pair.min_hash_sum", kernel->name, m);
    ExpectSameBits(mh_ref.match_sum, mh.match_sum, "mh_pair.match_sum",
                   kernel->name, m);

    ExpectSameBits(scalar.sum_f64(in.va.data(), m),
                   kernel->sum_f64(in.va.data(), m), "sum_f64",
                   kernel->name, m);
    ExpectSameBits(scalar.dot_f64(in.va.data(), in.vb.data(), m),
                   kernel->dot_f64(in.va.data(), in.vb.data(), m),
                   "dot_f64", kernel->name, m);
  }
}

TEST(SimdKernelsTest, AllTiersBitIdenticalOnRandomizedInputs) {
  for (size_t m : kSizes) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      CheckAllKernelsAgree(MakeInputs(m, seed), m, seed);
    }
  }
}

TEST(SimdKernelsTest, AllTiersAgreeOnAllMatchPairs) {
  for (size_t m : kSizes) {
    PairInputs in = MakeInputs(m, 99);
    in.hb = in.ha;
    in.fb = in.fa;
    in.qb = in.qa;
    in.sb = in.sa;
    in.vb = in.va;
    CheckAllKernelsAgree(in, m, 99);
    // Sanity: with identical sides and nonzero values everywhere the match
    // count is m.
    std::fill(in.va.begin(), in.va.end(), 0.5);
    in.vb = in.va;
    const WmhPairStats stats = ScalarKernel().wmh_pair(
        in.ha.data(), in.hb.data(), in.va.data(), in.vb.data(), m);
    EXPECT_EQ(stats.match_count, m);
  }
}

TEST(SimdKernelsTest, AllTiersAgreeOnZeroMatchPairs) {
  for (size_t m : kSizes) {
    PairInputs in = MakeInputs(m, 7);
    // Shift one side so no hash, fingerprint, or quantized hash ever
    // matches.
    for (size_t i = 0; i < m; ++i) {
      in.hb[i] = in.ha[i] * 0.5 + 0.25;
      if (in.hb[i] == in.ha[i]) in.hb[i] += 0.125;
      in.fb[i] = in.fa[i] ^ 1;
      in.qb[i] = in.qa[i] ^ 1;
    }
    CheckAllKernelsAgree(in, m, 7);
    const WmhPairStats stats = ScalarKernel().wmh_pair(
        in.ha.data(), in.hb.data(), in.va.data(), in.vb.data(), m);
    EXPECT_EQ(stats.match_count, 0u);
    EXPECT_EQ(stats.weighted_match_sum, 0.0);
  }
}

TEST(SimdKernelsTest, MatchedZeroValuesAreExcluded) {
  // A match whose value is 0 on either side has q = 0 and must contribute
  // to neither the weighted sum nor the match count — on every tier.
  const size_t m = 9;
  PairInputs in = MakeInputs(m, 3);
  in.hb = in.ha;
  in.fb = in.fa;
  in.qb = in.qa;
  std::fill(in.va.begin(), in.va.end(), 0.0);
  std::fill(in.sa.begin(), in.sa.end(), 0.0f);
  for (const EstimateKernel* kernel : AvailableKernels()) {
    SCOPED_TRACE(kernel->name);
    const WmhPairStats wmh = kernel->wmh_pair(
        in.ha.data(), in.hb.data(), in.va.data(), in.vb.data(), m);
    EXPECT_EQ(wmh.match_count, 0u);
    EXPECT_EQ(wmh.weighted_match_sum, 0.0);
    const MatchStats u64 = kernel->match_u64(
        in.fa.data(), in.fb.data(), in.va.data(), in.vb.data(), m);
    EXPECT_EQ(u64.match_count, 0u);
    const MatchStats u32 = kernel->match_u32(
        in.qa.data(), in.qb.data(), in.sa.data(), in.sb.data(), m);
    EXPECT_EQ(u32.match_count, 0u);
  }
}

TEST(SimdKernelsTest, CompactSentinelDequantizesToExactlyOne) {
  // An all-sentinel pair must produce min_hash_sum == m exactly (the
  // empty-catalog calibration the compact estimator's clamp relies on).
  for (size_t m : kSizes) {
    std::vector<uint32_t> q(m, ~uint32_t{0});
    std::vector<float> v(m, 0.0f);
    for (const EstimateKernel* kernel : AvailableKernels()) {
      SCOPED_TRACE(kernel->name);
      const CompactPairStats stats =
          kernel->compact_pair(q.data(), q.data(), v.data(), v.data(), m);
      EXPECT_EQ(stats.min_hash_sum, static_cast<double>(m));
    }
  }
}

TEST(SimdKernelsTest, SequentialReferencePinsNumericSemantics) {
  // The lane-ordered sums must stay within ordinary reassociation distance
  // of a plain sequential loop — the kernels change ordering, not math.
  const size_t m = 257;
  const PairInputs in = MakeInputs(m, 21);
  double seq_min = 0.0, seq_w = 0.0;
  uint64_t seq_count = 0;
  for (size_t i = 0; i < m; ++i) {
    seq_min += std::min(in.ha[i], in.hb[i]);
    if (in.ha[i] == in.hb[i]) {
      const double q = std::min(in.va[i] * in.va[i], in.vb[i] * in.vb[i]);
      if (q > 0.0) {
        seq_w += in.va[i] * in.vb[i] / q;
        ++seq_count;
      }
    }
  }
  const WmhPairStats stats = ScalarKernel().wmh_pair(
      in.ha.data(), in.hb.data(), in.va.data(), in.vb.data(), m);
  EXPECT_NEAR(stats.min_hash_sum, seq_min, 1e-9 * m);
  EXPECT_NEAR(stats.weighted_match_sum, seq_w,
              1e-9 * (std::abs(seq_w) + 1.0));
  EXPECT_EQ(stats.match_count, seq_count);
}

TEST(SimdKernelsTest, TruncatedPrefixEqualsShorterInput) {
  // Running a kernel over the first m' entries of a longer buffer must
  // equal running it over a copied m'-length buffer: kernels may not read
  // past m (the Truncate/prefix-slicing path depends on it).
  const size_t m = 70;
  const PairInputs in = MakeInputs(m, 11);
  for (size_t prefix : {1u, 3u, 4u, 13u, 64u, 69u}) {
    PairInputs cut = in;
    cut.ha.resize(prefix);
    cut.hb.resize(prefix);
    cut.va.resize(prefix);
    cut.vb.resize(prefix);
    for (const EstimateKernel* kernel : AvailableKernels()) {
      SCOPED_TRACE(std::string(kernel->name) + " prefix=" +
                   std::to_string(prefix));
      const WmhPairStats full = kernel->wmh_pair(
          in.ha.data(), in.hb.data(), in.va.data(), in.vb.data(), prefix);
      const WmhPairStats copy = kernel->wmh_pair(
          cut.ha.data(), cut.hb.data(), cut.va.data(), cut.vb.data(),
          prefix);
      EXPECT_EQ(std::bit_cast<uint64_t>(full.min_hash_sum),
                std::bit_cast<uint64_t>(copy.min_hash_sum));
      EXPECT_EQ(std::bit_cast<uint64_t>(full.weighted_match_sum),
                std::bit_cast<uint64_t>(copy.weighted_match_sum));
      EXPECT_EQ(full.match_count, copy.match_count);
    }
  }
}

TEST(SimdDispatchTest, ActiveKernelIsAvailableAndNamed) {
  const EstimateKernel& active = ActiveKernel();
  EXPECT_STREQ(active.name, ActiveKernelName());
  bool found = false;
  for (const EstimateKernel* kernel : AvailableKernels()) {
    found = found || (kernel == &active);
  }
  EXPECT_TRUE(found) << "dispatched tier '" << active.name
                     << "' missing from AvailableKernels()";
  // Scalar is always first so the equivalence loops have their reference.
  EXPECT_STREQ(AvailableKernels().front()->name, "scalar");
}

// Dispatch offers exactly two tiers: the scalar reference on every host,
// plus AVX2 where the CPU runs it. Unless pinned to scalar, dispatch picks
// AVX2 exactly when it is offered.
TEST(SimdDispatchTest, TiersAreScalarAndAvx2) {
  std::vector<std::string> names;
  for (const EstimateKernel* kernel : AvailableKernels()) {
    names.push_back(kernel->name);
  }
  const bool has_avx2 =
      std::find(names.begin(), names.end(), "avx2") != names.end();
  const std::vector<std::string> expected =
      has_avx2 ? std::vector<std::string>{"scalar", "avx2"}
               : std::vector<std::string>{"scalar"};
  EXPECT_EQ(names, expected);
  if (!ParseForceScalarEnv(std::getenv("IPSKETCH_FORCE_SCALAR"))) {
    EXPECT_STREQ(ActiveKernelName(), has_avx2 ? "avx2" : "scalar");
  }
}

TEST(SimdDispatchTest, TestingOverridePinsAndRestores) {
  const char* original = ActiveKernelName();
  SetActiveKernelForTesting(&ScalarKernel());
  EXPECT_STREQ(ActiveKernelName(), "scalar");
  SetActiveKernelForTesting(nullptr);
  EXPECT_STREQ(ActiveKernelName(), original);
}

TEST(SimdDispatchTest, EnvForceScalarPinIsHonored) {
  // Meaningful in the CI re-run with IPSKETCH_FORCE_SCALAR=1 set: a live
  // dispatch resolution that ignored the environment pin would fail here.
  // With the variable unset (or negative) the test asserts nothing.
  if (ParseForceScalarEnv(std::getenv("IPSKETCH_FORCE_SCALAR"))) {
    EXPECT_STREQ(ActiveKernelName(), "scalar");
  }
}

TEST(SimdDispatchTest, ForceScalarEnvParsing) {
  EXPECT_FALSE(ParseForceScalarEnv(nullptr));
  EXPECT_FALSE(ParseForceScalarEnv(""));
  EXPECT_FALSE(ParseForceScalarEnv("0"));
  EXPECT_FALSE(ParseForceScalarEnv("off"));
  EXPECT_FALSE(ParseForceScalarEnv("OFF"));
  EXPECT_FALSE(ParseForceScalarEnv("Off"));
  EXPECT_FALSE(ParseForceScalarEnv("false"));
  EXPECT_FALSE(ParseForceScalarEnv("False"));
  EXPECT_FALSE(ParseForceScalarEnv("no"));
  EXPECT_FALSE(ParseForceScalarEnv("NO"));
  EXPECT_TRUE(ParseForceScalarEnv("1"));
  EXPECT_TRUE(ParseForceScalarEnv("on"));
  EXPECT_TRUE(ParseForceScalarEnv("true"));
  EXPECT_TRUE(ParseForceScalarEnv("yes"));
}

}  // namespace
}  // namespace simd
}  // namespace ipsketch
