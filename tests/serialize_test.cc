#include "sketch/serialize.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/wmh_estimator.h"
#include "vector/vector_ops.h"

namespace ipsketch {
namespace {

SparseVector TestVector(uint64_t seed, uint64_t lo = 0, uint64_t hi = 80) {
  Xoshiro256StarStar rng(seed);
  std::vector<Entry> entries;
  for (uint64_t i = lo; i < hi; ++i) {
    entries.push_back({i, rng.NextGaussian() + 0.2});
  }
  return SparseVector::MakeOrDie(256, std::move(entries));
}

TEST(SerializeWmhTest, RoundTripPreservesEverything) {
  WmhOptions o;
  o.num_samples = 32;
  o.seed = 7;
  o.L = 4096;
  const auto original = SketchWmh(TestVector(1), o).value();
  const std::string bytes = SerializeWmh(original);
  const auto restored = DeserializeWmh(bytes).value();
  EXPECT_EQ(restored.hashes, original.hashes);
  EXPECT_EQ(restored.values, original.values);
  EXPECT_EQ(restored.norm, original.norm);
  EXPECT_EQ(restored.seed, original.seed);
  EXPECT_EQ(restored.L, original.L);
  EXPECT_EQ(restored.dimension, original.dimension);
}

TEST(SerializeWmhTest, RestoredSketchEstimatesIdentically) {
  WmhOptions o;
  o.num_samples = 64;
  o.seed = 9;
  const auto sa = SketchWmh(TestVector(2, 0, 100), o).value();
  const auto sb = SketchWmh(TestVector(3, 50, 150), o).value();
  const double direct = EstimateWmhInnerProduct(sa, sb).value();
  const auto ra = DeserializeWmh(SerializeWmh(sa)).value();
  const auto rb = DeserializeWmh(SerializeWmh(sb)).value();
  EXPECT_DOUBLE_EQ(EstimateWmhInnerProduct(ra, rb).value(), direct);
}

TEST(SerializeWmhTest, EmptyVectorSketchRoundTrips) {
  WmhOptions o;
  o.num_samples = 8;
  SparseVector zero = SparseVector::FromDense(std::vector<double>(4, 0.0));
  const auto s = SketchWmh(zero, o).value();
  const auto restored = DeserializeWmh(SerializeWmh(s)).value();
  EXPECT_EQ(restored.norm, 0.0);
  EXPECT_EQ(restored.hashes, s.hashes);
}

TEST(SerializeMhTest, RoundTripIncludingHashKind) {
  MhOptions o;
  o.num_samples = 16;
  o.seed = 5;
  o.hash_kind = HashKind::kCarterWegman31;
  const auto s = SketchMh(TestVector(4), o).value();
  const auto restored = DeserializeMh(SerializeMh(s)).value();
  EXPECT_EQ(restored.hashes, s.hashes);
  EXPECT_EQ(restored.values, s.values);
  EXPECT_EQ(restored.hash_kind, HashKind::kCarterWegman31);
}

TEST(SerializeKmvTest, RoundTripPreservesSortedSamples) {
  KmvOptions o;
  o.k = 24;
  o.seed = 11;
  const auto s = SketchKmv(TestVector(5), o).value();
  const auto restored = DeserializeKmv(SerializeKmv(s)).value();
  ASSERT_EQ(restored.samples.size(), s.samples.size());
  for (size_t i = 0; i < s.samples.size(); ++i) {
    EXPECT_EQ(restored.samples[i].hash, s.samples[i].hash);
    EXPECT_EQ(restored.samples[i].value, s.samples[i].value);
  }
  EXPECT_EQ(restored.k, s.k);
}

TEST(SerializeKmvTest, RejectsUnsortedSamples) {
  KmvOptions o;
  o.k = 8;
  const auto s = SketchKmv(TestVector(6), o).value();
  std::string bytes = SerializeKmv(s);
  // Swap the two stored sample records (16 bytes each) after the header
  // (4 magic + 1 version + 1 tag + 8 seed + 8 dim + 8 k + 1 kind + 8 count).
  const size_t payload = 4 + 1 + 1 + 8 + 8 + 8 + 1 + 8;
  std::string swapped = bytes;
  for (size_t b = 0; b < 16; ++b) {
    std::swap(swapped[payload + b], swapped[payload + 16 + b]);
  }
  EXPECT_FALSE(DeserializeKmv(swapped).ok());
}

TEST(SerializeJlTest, RoundTrip) {
  JlOptions o;
  o.num_rows = 12;
  o.seed = 13;
  const auto s = SketchJl(TestVector(7), o).value();
  const auto restored = DeserializeJl(SerializeJl(s)).value();
  EXPECT_EQ(restored.projection, s.projection);
  EXPECT_EQ(restored.seed, s.seed);
}

TEST(SerializeCountSketchTest, RoundTrip) {
  CountSketchOptions o;
  o.total_counters = 40;
  o.seed = 17;
  const auto s = SketchCount(TestVector(8), o).value();
  const auto restored = DeserializeCountSketch(SerializeCountSketch(s)).value();
  EXPECT_EQ(restored.tables, s.tables);
}

TEST(SerializeIcwsTest, RoundTrip) {
  IcwsOptions o;
  o.num_samples = 16;
  o.seed = 19;
  const auto s = SketchIcws(TestVector(9), o).value();
  const auto restored = DeserializeIcws(SerializeIcws(s)).value();
  EXPECT_EQ(restored.fingerprints, s.fingerprints);
  EXPECT_EQ(restored.values, s.values);
  EXPECT_EQ(restored.norm, s.norm);
}

TEST(SerializeRobustnessTest, RejectsEmptyAndGarbage) {
  EXPECT_FALSE(DeserializeWmh("").ok());
  EXPECT_FALSE(DeserializeWmh("garbage bytes here").ok());
  EXPECT_FALSE(DeserializeJl(std::string(3, '\0')).ok());
}

TEST(SerializeRobustnessTest, RejectsTruncation) {
  WmhOptions o;
  o.num_samples = 16;
  const auto s = SketchWmh(TestVector(11), o).value();
  const std::string bytes = SerializeWmh(s);
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{7}}) {
    EXPECT_FALSE(DeserializeWmh(bytes.substr(0, cut)).ok()) << cut;
  }
}

TEST(SerializeRobustnessTest, EveryTruncationRejectedCleanly) {
  // Property: no prefix of a valid blob parses, and none crashes.
  WmhOptions o;
  o.num_samples = 4;
  const auto s = SketchWmh(TestVector(20, 0, 10), o).value();
  const std::string bytes = SerializeWmh(s);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DeserializeWmh(bytes.substr(0, cut)).ok()) << cut;
  }
}

TEST(SerializeRobustnessTest, RejectsTrailingBytes) {
  WmhOptions o;
  o.num_samples = 8;
  const auto s = SketchWmh(TestVector(12), o).value();
  EXPECT_FALSE(DeserializeWmh(SerializeWmh(s) + "x").ok());
}

TEST(SerializeRobustnessTest, RejectsCrossTypeParse) {
  JlOptions o;
  o.num_rows = 8;
  const auto s = SketchJl(TestVector(13), o).value();
  const std::string bytes = SerializeJl(s);
  EXPECT_FALSE(DeserializeWmh(bytes).ok());
  EXPECT_FALSE(DeserializeKmv(bytes).ok());
}

TEST(SerializeRobustnessTest, RejectsBadVersion) {
  WmhOptions o;
  o.num_samples = 8;
  const auto s = SketchWmh(TestVector(14), o).value();
  std::string bytes = SerializeWmh(s);
  bytes[4] = 99;  // version byte
  EXPECT_FALSE(DeserializeWmh(bytes).ok());
}

TEST(QuantizedSerializeTest, RoundTripsAndRejectsMalformedBytes) {
  WmhOptions o;
  o.num_samples = 8;
  o.engine = WmhEngine::kActiveIndex;
  const auto full = SketchWmh(TestVector(19), o).value();

  const auto compact = CompactFromWmh(full);
  const std::string cb = SerializeCompactWmh(compact);
  auto cparsed = DeserializeCompactWmh(cb);
  ASSERT_TRUE(cparsed.ok()) << cparsed.status().ToString();
  EXPECT_EQ(SerializeCompactWmh(cparsed.value()), cb);
  EXPECT_EQ(cparsed.value().engine, WmhEngine::kActiveIndex);
  EXPECT_EQ(cparsed.value().hashes, compact.hashes);
  EXPECT_EQ(cparsed.value().values, compact.values);

  const auto bbit = BbitFromWmh(full, 12).value();
  const std::string bb = SerializeBbitWmh(bbit);
  auto bparsed = DeserializeBbitWmh(bb);
  ASSERT_TRUE(bparsed.ok()) << bparsed.status().ToString();
  EXPECT_EQ(SerializeBbitWmh(bparsed.value()), bb);
  EXPECT_EQ(bparsed.value().bits, 12u);
  EXPECT_EQ(bparsed.value().fingerprints, bbit.fingerprints);

  // Truncated, type-confused, and empty inputs are all rejected.
  EXPECT_FALSE(DeserializeCompactWmh(bb).ok());
  EXPECT_FALSE(DeserializeBbitWmh(cb).ok());
  EXPECT_FALSE(DeserializeCompactWmh("").ok());
  for (size_t cut = 1; cut < cb.size(); cut += 7) {
    EXPECT_FALSE(
        DeserializeCompactWmh(std::string_view(cb).substr(0, cut)).ok());
  }
}

}  // namespace
}  // namespace ipsketch
