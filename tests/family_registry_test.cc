#include "sketch/family.h"

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/rounding.h"
#include "data/synthetic.h"
#include "sketch/quantize.h"
#include "sketch/serialize.h"
#include "vector/vector_ops.h"

namespace ipsketch {
namespace {

constexpr uint64_t kDim = 512;

SparseVector RandomVector(uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<Entry> entries;
  for (uint64_t index : SampleDistinctIndices(kDim, 24, seed)) {
    entries.push_back({index, rng.NextUnit() * 2.0 - 1.0});
  }
  return SparseVector::MakeOrDie(kDim, std::move(entries));
}

FamilyOptions SmallOptions() {
  FamilyOptions options;
  options.dimension = kDim;
  options.num_samples = 64;
  options.seed = 42;
  return options;
}

/// A value-parameterized fixture running every registered family through
/// the same assertions.
class FamilyRegistryTest : public ::testing::TestWithParam<FamilyInfo> {};

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FamilyRegistryTest,
    ::testing::ValuesIn(RegisteredFamilies()),
    [](const ::testing::TestParamInfo<FamilyInfo>& info) {
      return info.param.name;
    });

TEST_P(FamilyRegistryTest, MetadataIsConsistent) {
  const FamilyInfo& info = GetParam();
  auto family = MakeFamily(info.name, SmallOptions()).value();
  EXPECT_EQ(family->name(), info.name);
  EXPECT_EQ(family->display_name(), info.display_name);
  EXPECT_EQ(family->storage_class(), info.storage);
  EXPECT_EQ(family->supports_merge(), info.supports_merge);
  EXPECT_EQ(family->supports_truncation(), info.supports_truncation);
  EXPECT_EQ(family->supports_banding(), info.supports_banding);
  EXPECT_EQ(family->options().dimension, kDim);
  EXPECT_EQ(family->options().num_samples, 64u);
  EXPECT_EQ(family->options().seed, 42u);
}

TEST_P(FamilyRegistryTest, SketchEstimateIsFiniteAndCompatible) {
  auto family = MakeFamily(GetParam().name, SmallOptions()).value();
  auto sketcher = family->MakeSketcher().value();
  auto a = family->NewSketch();
  auto b = family->NewSketch();
  ASSERT_TRUE(sketcher->Sketch(RandomVector(1), a.get()).ok());
  ASSERT_TRUE(sketcher->Sketch(RandomVector(2), b.get()).ok());

  EXPECT_TRUE(family->CheckCompatible(*a).ok());
  EXPECT_TRUE(family->CheckCompatible(*b).ok());
  EXPECT_GT(family->StorageWords(*a).value(), 0.0);

  const auto estimate = family->Estimate(*a, *b);
  ASSERT_TRUE(estimate.ok());
  EXPECT_TRUE(std::isfinite(estimate.value()));

  // Sketching is deterministic in (seed, vector): a second pass must agree.
  auto a2 = family->NewSketch();
  ASSERT_TRUE(sketcher->Sketch(RandomVector(1), a2.get()).ok());
  EXPECT_EQ(family->Serialize(*a).value(), family->Serialize(*a2).value());

  // Clone preserves the payload exactly.
  EXPECT_EQ(family->Serialize(*a->Clone()).value(),
            family->Serialize(*a).value());
}

TEST_P(FamilyRegistryTest, SerializeDeserializeRoundTripIsByteIdentical) {
  auto family = MakeFamily(GetParam().name, SmallOptions()).value();
  auto sketcher = family->MakeSketcher().value();
  auto a = family->NewSketch();
  auto b = family->NewSketch();
  ASSERT_TRUE(sketcher->Sketch(RandomVector(3), a.get()).ok());
  ASSERT_TRUE(sketcher->Sketch(RandomVector(4), b.get()).ok());
  const double in_memory = family->Estimate(*a, *b).value();

  const std::string bytes_a = family->Serialize(*a).value();
  const std::string bytes_b = family->Serialize(*b).value();
  auto ra = family->Deserialize(bytes_a);
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  auto rb = family->Deserialize(bytes_b);
  ASSERT_TRUE(rb.ok());

  // Decoded sketches are compatible, re-encode byte-identically, and
  // estimate to the exact same double (IEEE-754 bit patterns survive).
  EXPECT_TRUE(family->CheckCompatible(*ra.value()).ok());
  EXPECT_EQ(family->Serialize(*ra.value()).value(), bytes_a);
  EXPECT_EQ(family->Estimate(*ra.value(), *rb.value()).value(), in_memory);

  // Malformed bytes are rejected, never misparsed.
  EXPECT_FALSE(family->Deserialize("").ok());
  EXPECT_FALSE(family->Deserialize("not a sketch").ok());
  EXPECT_FALSE(
      family->Deserialize(std::string_view(bytes_a).substr(0, 9)).ok());
}

TEST_P(FamilyRegistryTest, MergeMatchesCapabilityFlag) {
  auto family = MakeFamily(GetParam().name, SmallOptions()).value();
  auto sketcher = family->MakeSketcher().value();
  auto a = family->NewSketch();
  auto b = family->NewSketch();
  ASSERT_TRUE(sketcher->Sketch(RandomVector(5), a.get()).ok());
  ASSERT_TRUE(sketcher->Sketch(RandomVector(6), b.get()).ok());

  auto merged = family->Merge(*a, *b);
  if (family->supports_merge()) {
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    // The merged sketch estimates against family members like any other.
    EXPECT_TRUE(
        std::isfinite(family->Estimate(*merged.value(), *a).value()));
  } else {
    EXPECT_EQ(merged.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST_P(FamilyRegistryTest, TruncateMatchesCapabilityFlag) {
  auto family = MakeFamily(GetParam().name, SmallOptions()).value();
  auto sketcher = family->MakeSketcher().value();
  auto a = family->NewSketch();
  auto b = family->NewSketch();
  ASSERT_TRUE(sketcher->Sketch(RandomVector(7), a.get()).ok());
  ASSERT_TRUE(sketcher->Sketch(RandomVector(8), b.get()).ok());

  auto truncated = family->Truncate(*a, 16);
  if (family->supports_truncation()) {
    ASSERT_TRUE(truncated.ok()) << truncated.status().ToString();
    auto tb = family->Truncate(*b, 16).value();
    EXPECT_TRUE(std::isfinite(
        family->Estimate(*truncated.value(), *tb).value()));
    // Beyond the sketch's own size is out of range, and so is an empty
    // sketch: m = 0 is a status, never a process abort.
    EXPECT_EQ(family->Truncate(*a, 1000).status().code(),
              StatusCode::kOutOfRange);
    EXPECT_EQ(family->Truncate(*a, 0).status().code(),
              StatusCode::kOutOfRange);
  } else {
    EXPECT_EQ(truncated.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(family->Truncate(*a, 0).status().code(),
              StatusCode::kFailedPrecondition);
  }
}

TEST_P(FamilyRegistryTest, RejectsSketchesOfOtherFamilies) {
  const FamilyInfo& info = GetParam();
  auto family = MakeFamily(info.name, SmallOptions()).value();
  // A sketch from some *other* family.
  const std::string other_name = info.name == "wmh" ? "jl" : "wmh";
  auto other = MakeFamily(other_name, SmallOptions()).value();
  auto foreign = other->NewSketch();
  ASSERT_TRUE(
      other->MakeSketcher().value()->Sketch(RandomVector(9), foreign.get())
          .ok());

  EXPECT_EQ(family->CheckCompatible(*foreign).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(family->Estimate(*foreign, *foreign).ok());
  EXPECT_FALSE(family->StorageWords(*foreign).ok());
  EXPECT_FALSE(family->Serialize(*foreign).ok());
  // Another family's wire bytes carry the wrong type tag.
  EXPECT_FALSE(
      family->Deserialize(other->Serialize(*foreign).value()).ok());
  // Sketching into a foreign output sketch is rejected too.
  EXPECT_FALSE(
      family->MakeSketcher().value()->Sketch(RandomVector(1), foreign.get())
          .ok());

  // Each capability rejects the foreign sketch with InvalidArgument where
  // the family has it, and FailedPrecondition where it does not.
  // ResidentWords always downcasts.
  const auto capability_code = [](bool supported) {
    return supported ? StatusCode::kInvalidArgument
                     : StatusCode::kFailedPrecondition;
  };
  EXPECT_EQ(family->ResidentWords(*foreign).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(family->Truncate(*foreign, 16).status().code(),
            capability_code(info.supports_truncation));
  EXPECT_EQ(family->Merge(*foreign, *foreign).status().code(),
            capability_code(info.supports_merge));
  std::vector<uint64_t> codes;
  EXPECT_EQ(family->AppendLshCodes(*foreign, &codes).code(),
            capability_code(info.supports_banding));
  EXPECT_TRUE(codes.empty());
}

TEST_P(FamilyRegistryTest, EstimateManyMatchesPairwiseEstimate) {
  const std::string& name = GetParam().name;
  auto family = MakeFamily(name, SmallOptions()).value();
  auto sketcher = family->MakeSketcher().value();
  std::vector<std::unique_ptr<AnySketch>> owned;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    owned.push_back(family->NewSketch());
    ASSERT_TRUE(sketcher->Sketch(RandomVector(seed), owned.back().get()).ok());
  }
  // A 3-query × 5-stored grid; row i holds query i's estimates.
  const std::vector<const AnySketch*> queries = {
      owned[0].get(), owned[1].get(), owned[2].get()};
  const std::vector<const AnySketch*> stored = {
      owned[3].get(), owned[4].get(), owned[5].get(), owned[6].get(),
      owned[7].get()};
  std::vector<double> grid(queries.size() * stored.size(), -1.0);
  ASSERT_TRUE(family->EstimateMany(queries, stored, grid).ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = 0; j < stored.size(); ++j) {
      const auto pair = family->Estimate(*queries[i], *stored[j]);
      ASSERT_TRUE(pair.ok()) << pair.status().ToString();
      EXPECT_EQ(std::memcmp(&grid[i * stored.size() + j], &pair.value(),
                            sizeof(double)),
                0)
          << "query " << i << ", stored " << j;
    }
  }

  // Empty spans write nothing and succeed.
  std::vector<double> untouched(4, -1.0);
  const std::span<double> none(untouched.data(), 0);
  EXPECT_TRUE(family->EstimateMany({}, stored, none).ok());
  EXPECT_TRUE(family->EstimateMany(queries, {}, none).ok());
  for (double value : untouched) EXPECT_EQ(value, -1.0);

  // A sketch of another family in either span is refused with the same
  // message as every other downcast.
  auto other = MakeFamily(name == "wmh" ? "jl" : "wmh", SmallOptions()).value();
  auto foreign = other->NewSketch();
  ASSERT_TRUE(
      other->MakeSketcher().value()->Sketch(RandomVector(9), foreign.get())
          .ok());
  std::vector<const AnySketch*> bad_queries = queries;
  bad_queries[1] = foreign.get();
  std::vector<const AnySketch*> bad_stored = stored;
  bad_stored[4] = foreign.get();
  for (const Status& status :
       {family->EstimateMany(bad_queries, stored, grid),
        family->EstimateMany(queries, bad_stored, grid)}) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), "sketch is not of family '" + name + "'");
  }
}

TEST_P(FamilyRegistryTest, StorageAndResidentWordsArePinned) {
  // (StorageWords, ResidentWords) of RandomVector(1)'s sketch at m = 64:
  // the §5 accounting and the in-memory layout of every family. A new
  // family must add its row.
  static const std::map<std::string, std::pair<double, double>> kWords = {
      {"jl", {64, 64}},          {"cs", {60, 60}},
      {"mh", {96, 128}},         {"kmv", {36, 48}},
      {"wmh", {97, 129}},        {"icws", {97, 129}},
      {"wmh_compact", {65, 65}}, {"wmh_bbit", {49, 65}},
  };
  const auto pinned = kWords.find(GetParam().name);
  ASSERT_NE(pinned, kWords.end()) << "no pinned row for " << GetParam().name;
  auto family = MakeFamily(GetParam().name, SmallOptions()).value();
  auto a = family->NewSketch();
  ASSERT_TRUE(family->MakeSketcher().value()->Sketch(RandomVector(1), a.get())
                  .ok());
  EXPECT_DOUBLE_EQ(family->StorageWords(*a).value(), pinned->second.first);
  EXPECT_DOUBLE_EQ(family->ResidentWords(*a).value(), pinned->second.second);
}

TEST_P(FamilyRegistryTest, SketcherRejectsVectorsOfOtherDimensions) {
  auto family = MakeFamily(GetParam().name, SmallOptions()).value();
  auto sketch = family->NewSketch();
  const SparseVector wide = SparseVector::MakeOrDie(kDim + 1, {{kDim, 1.0}});
  const Status st = family->MakeSketcher().value()->Sketch(wide, sketch.get());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("dimension"), std::string::npos)
      << st.message();
}

TEST_P(FamilyRegistryTest, ValidatesCommonOptions) {
  const std::string& name = GetParam().name;

  FamilyOptions no_dimension = SmallOptions();
  no_dimension.dimension = 0;
  EXPECT_EQ(MakeFamily(name, no_dimension).status().code(),
            StatusCode::kInvalidArgument);

  FamilyOptions zero_samples = SmallOptions();
  zero_samples.num_samples = 0;
  EXPECT_FALSE(MakeFamily(name, zero_samples).ok());

  FamilyOptions unknown_param = SmallOptions();
  unknown_param.params["definitely_not_a_knob"] = "1";
  auto made = MakeFamily(name, unknown_param);
  EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(made.status().message().find("definitely_not_a_knob"),
            std::string::npos);
}

TEST(FamilyRegistryErrorTest, UnknownFamilyNameIsDescriptive) {
  auto made = MakeFamily("simhash_but_wrong", SmallOptions());
  EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument);
  // The error lists what IS registered.
  EXPECT_NE(made.status().message().find("wmh"), std::string::npos);
  EXPECT_EQ(GetFamilyInfo("").status().code(), StatusCode::kInvalidArgument);
}

TEST(FamilyRegistryErrorTest, RegistryListsExactlyEightFamilies) {
  const auto& families = RegisteredFamilies();
  ASSERT_EQ(families.size(), 8u);
  for (const char* name : {"wmh", "icws", "mh", "kmv", "cs", "jl",
                           "wmh_compact", "wmh_bbit"}) {
    EXPECT_TRUE(GetFamilyInfo(name).ok()) << name;
  }
}

TEST(FamilyRegistryErrorTest, FamilySpecificParamsAreValidated) {
  // WMH: malformed L, unknown engine.
  FamilyOptions bad_l = SmallOptions();
  bad_l.params["L"] = "not_a_number";
  EXPECT_EQ(MakeFamily("wmh", bad_l).status().code(),
            StatusCode::kInvalidArgument);
  FamilyOptions bad_engine = SmallOptions();
  bad_engine.params["engine"] = "quantum";
  EXPECT_EQ(MakeFamily("wmh", bad_engine).status().code(),
            StatusCode::kInvalidArgument);

  // MH/KMV: unknown hash kind.
  FamilyOptions bad_hash = SmallOptions();
  bad_hash.params["hash"] = "md5";
  EXPECT_EQ(MakeFamily("mh", bad_hash).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeFamily("kmv", bad_hash).status().code(),
            StatusCode::kInvalidArgument);

  // CS: more repetitions than counters leaves zero-width tables.
  FamilyOptions bad_reps = SmallOptions();
  bad_reps.params["repetitions"] = "1000";
  EXPECT_EQ(MakeFamily("cs", bad_reps).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FamilyRegistryErrorTest, WmhResolvesDefaultsIntoItsIdentity) {
  auto family = MakeFamily("wmh", SmallOptions()).value();
  EXPECT_EQ(family->options().params.at("L"),
            std::to_string(DefaultL(kDim)));
  // The fast ingest engine is the default; it is part of the identity.
  EXPECT_EQ(family->options().params.at("engine"), "dart");

  // An explicit L is honored verbatim.
  FamilyOptions with_l = SmallOptions();
  with_l.params["L"] = "2048";
  EXPECT_EQ(MakeFamily("wmh", with_l).value()->options().params.at("L"),
            "2048");

  // Explicit engines are honored and resolved into the identity.
  FamilyOptions with_engine = SmallOptions();
  with_engine.params["engine"] = "active_index";
  EXPECT_EQ(MakeFamily("wmh", with_engine)
                .value()
                ->options()
                .params.at("engine"),
            "active_index");
}

TEST(FamilyRegistryErrorTest, IcwsResolvesEngineAndLIntoItsIdentity) {
  // Default: the dart engine with a resolved L.
  auto family = MakeFamily("icws", SmallOptions()).value();
  EXPECT_EQ(family->options().params.at("engine"), "dart");
  EXPECT_EQ(family->options().params.at("L"),
            std::to_string(DefaultL(kDim)));

  // The exact engine carries no L in its identity and rejects one.
  FamilyOptions exact = SmallOptions();
  exact.params["engine"] = "icws";
  auto exact_family = MakeFamily("icws", exact).value();
  EXPECT_EQ(exact_family->options().params.at("engine"), "icws");
  EXPECT_EQ(exact_family->options().params.count("L"), 0u);
  exact.params["L"] = "2048";
  EXPECT_EQ(MakeFamily("icws", exact).status().code(),
            StatusCode::kInvalidArgument);

  // Unknown engines are rejected, never silently defaulted.
  FamilyOptions bad = SmallOptions();
  bad.params["engine"] = "quantum";
  EXPECT_EQ(MakeFamily("icws", bad).status().code(),
            StatusCode::kInvalidArgument);

  // Sketches from families with different engines are mutually
  // incompatible even at equal (m, seed, dimension).
  auto dart_sketch = family->NewSketch();
  ASSERT_TRUE(family->MakeSketcher()
                  .value()
                  ->Sketch(RandomVector(1), dart_sketch.get())
                  .ok());
  EXPECT_EQ(exact_family->CheckCompatible(*dart_sketch).code(),
            StatusCode::kInvalidArgument);
}

TEST(QuantizedFamilyTest, CompactFamiliesResolveWmhIdentity) {
  // Both quantized encodings resolve the same {L, engine} identity as the
  // full-precision family they shadow, so a compactified catalog's options
  // line up field for field with its source.
  for (const char* name : {"wmh_compact", "wmh_bbit"}) {
    auto family = MakeFamily(name, SmallOptions()).value();
    EXPECT_EQ(family->options().params.at("L"),
              std::to_string(DefaultL(kDim)))
        << name;
    EXPECT_EQ(family->options().params.at("engine"), "dart") << name;
  }
  // The b-bit width defaults to 16 and is resolved into the identity.
  auto bbit = MakeFamily("wmh_bbit", SmallOptions()).value();
  EXPECT_EQ(bbit->options().params.at("bits"), "16");

  FamilyOptions eight = SmallOptions();
  eight.params["bits"] = "8";
  EXPECT_EQ(MakeFamily("wmh_bbit", eight).value()->options().params.at(
                "bits"),
            "8");
}

TEST(QuantizedFamilyTest, BbitWidthOutsideRangeIsRejected) {
  for (const char* bad : {"0", "33", "not_a_number", ""}) {
    FamilyOptions options = SmallOptions();
    options.params["bits"] = bad;
    EXPECT_EQ(MakeFamily("wmh_bbit", options).status().code(),
              StatusCode::kInvalidArgument)
        << "bits=" << bad;
  }
  // 'bits' is not a knob of the 32-bit compact encoding (or of wmh).
  FamilyOptions stray = SmallOptions();
  stray.params["bits"] = "16";
  EXPECT_EQ(MakeFamily("wmh_compact", stray).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeFamily("wmh", stray).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QuantizedFamilyTest, CrossEngineCompactSketchesAreRejected) {
  // The headline regression: quantization must carry the engine, and the
  // family must enforce engine equality exactly as full-precision WMH does.
  FamilyOptions dart = SmallOptions();
  dart.params["engine"] = "dart";
  FamilyOptions active = SmallOptions();
  active.params["engine"] = "active_index";
  for (const char* name : {"wmh_compact", "wmh_bbit"}) {
    auto dart_family = MakeFamily(name, dart).value();
    auto active_family = MakeFamily(name, active).value();
    auto from_dart = dart_family->NewSketch();
    auto from_active = active_family->NewSketch();
    ASSERT_TRUE(dart_family->MakeSketcher()
                    .value()
                    ->Sketch(RandomVector(1), from_dart.get())
                    .ok());
    ASSERT_TRUE(active_family->MakeSketcher()
                    .value()
                    ->Sketch(RandomVector(1), from_active.get())
                    .ok());
    // Same vector, same seed/L/m — only the engine differs. Both the
    // insert-time guard and the estimator must reject the pair.
    EXPECT_EQ(dart_family->CheckCompatible(*from_active).code(),
              StatusCode::kInvalidArgument)
        << name;
    const auto estimate = dart_family->Estimate(*from_dart, *from_active);
    EXPECT_EQ(estimate.status().code(), StatusCode::kInvalidArgument)
        << name;
    EXPECT_NE(estimate.status().message().find("engine"), std::string::npos)
        << name;
  }
}

TEST(QuantizedFamilyTest, OversizeFingerprintsAreRejectedAtInsertTime) {
  // The wire decoder rejects fingerprints wider than the declared b; the
  // insert-time guard must enforce the same invariant, or a store could
  // persist a file its own decoder refuses to reopen.
  auto family = MakeFamily("wmh_bbit", SmallOptions()).value();
  auto sketch = family->NewSketch();
  ASSERT_TRUE(family->MakeSketcher()
                  .value()
                  ->Sketch(RandomVector(1), sketch.get())
                  .ok());
  ASSERT_TRUE(family->CheckCompatible(*sketch).ok());
  auto* typed = GetMutableSketchAs<BbitWmhSketch>(sketch.get());
  ASSERT_NE(typed, nullptr);
  typed->fingerprints[0] = 0x10000u;  // bits 16..: outside b = 16
  const Status st = family->CheckCompatible(*sketch);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("width"), std::string::npos);
}

TEST(QuantizedFamilyTest, QuantizeWmhSketchConvertsAndValidates) {
  auto wmh = MakeFamily("wmh", SmallOptions()).value();
  auto compact = MakeFamily("wmh_compact", SmallOptions()).value();
  auto full = wmh->NewSketch();
  ASSERT_TRUE(
      wmh->MakeSketcher().value()->Sketch(RandomVector(3), full.get()).ok());

  auto quantized = QuantizeWmhSketch(*compact, *full);
  ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
  EXPECT_TRUE(compact->CheckCompatible(*quantized.value()).ok());
  // The conversion is exactly what the family's own sketcher produces.
  auto direct = compact->NewSketch();
  ASSERT_TRUE(compact->MakeSketcher()
                  .value()
                  ->Sketch(RandomVector(3), direct.get())
                  .ok());
  EXPECT_EQ(compact->Serialize(*quantized.value()).value(),
            compact->Serialize(*direct).value());

  // A full sketch with a different identity is rejected, never relabeled.
  FamilyOptions other_seed = SmallOptions();
  other_seed.seed = 99;
  auto wmh99 = MakeFamily("wmh", other_seed).value();
  auto full99 = wmh99->NewSketch();
  ASSERT_TRUE(wmh99->MakeSketcher()
                  .value()
                  ->Sketch(RandomVector(3), full99.get())
                  .ok());
  EXPECT_EQ(QuantizeWmhSketch(*compact, *full99).status().code(),
            StatusCode::kInvalidArgument);
  // Non-quantized targets and non-WMH inputs are rejected.
  EXPECT_EQ(QuantizeWmhSketch(*wmh, *full).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(QuantizeWmhSketch(*compact, *quantized.value()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QuantizedFamilyTest, ResidentWordsHalveUnderCompaction) {
  auto wmh = MakeFamily("wmh", SmallOptions()).value();
  auto compact = MakeFamily("wmh_compact", SmallOptions()).value();
  auto bbit = MakeFamily("wmh_bbit", SmallOptions()).value();
  auto full = wmh->NewSketch();
  ASSERT_TRUE(
      wmh->MakeSketcher().value()->Sketch(RandomVector(5), full.get()).ok());
  auto small = QuantizeWmhSketch(*compact, *full).value();
  auto tiny = QuantizeWmhSketch(*bbit, *full).value();

  // m = 64: full-precision resident = 2m+1 = 129 words (the §5 accounting
  // charges 1.5m+1 = 97); compact resident = accounting = m+1 = 65.
  EXPECT_DOUBLE_EQ(wmh->StorageWords(*full).value(), 97.0);
  EXPECT_DOUBLE_EQ(wmh->ResidentWords(*full).value(), 129.0);
  EXPECT_DOUBLE_EQ(compact->StorageWords(*small).value(), 65.0);
  EXPECT_DOUBLE_EQ(compact->ResidentWords(*small).value(), 65.0);
  // b = 16: accounting (16+32)/64·m+1 = 49; resident stays one u32+f32
  // word per sample.
  EXPECT_DOUBLE_EQ(bbit->StorageWords(*tiny).value(), 49.0);
  EXPECT_DOUBLE_EQ(bbit->ResidentWords(*tiny).value(), 65.0);

  // The acceptance ratio: a compact catalog is at most 0.52× the resident
  // footprint of the full-precision one.
  EXPECT_LE(compact->ResidentWords(*small).value() /
                wmh->ResidentWords(*full).value(),
            0.52);
}

TEST(FamilyOptionsWireTest, EncodeDecodeRoundTrips) {
  FamilyOptions options = SmallOptions();
  options.params["L"] = "4096";
  options.params["engine"] = "active_index";
  std::string bytes;
  AppendFamilyOptions(&bytes, options);

  // Decode through the public reader path used by persistence.
  FamilyOptions decoded;
  {
    wire::BoundedReader r(bytes);
    ASSERT_TRUE(ReadFamilyOptions(&r, &decoded).ok());
    ASSERT_TRUE(r.ExpectEnd().ok());
  }
  EXPECT_EQ(decoded, options);

  // Truncated options bytes are rejected.
  {
    wire::BoundedReader r(
        std::string_view(bytes).substr(0, bytes.size() - 2));
    FamilyOptions scratch;
    EXPECT_FALSE(ReadFamilyOptions(&r, &scratch).ok());
  }

  EXPECT_NE(FamilyOptionsToString(options).find("L=4096"),
            std::string::npos);
}

}  // namespace
}  // namespace ipsketch
