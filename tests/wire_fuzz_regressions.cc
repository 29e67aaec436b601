// Deterministic malformed-input coverage for every wire decoder, plus a
// replayer for fuzzer-found crash files.
//
// Three layers:
//   1. Replay: every file under fuzz/regressions/ runs through every
//      decoder via the same decode-contract harness the fuzz targets use
//      (fuzz/decode_contract.h), so a crash input found by any one target
//      permanently guards the whole surface. Minimized crash files get
//      checked in there; tools/make_corpus.py regenerates the named seeds
//      for the bugs fixed when this harness was introduced.
//   2. Named regressions: each fixed decoder bug (length-field multiply
//      wrapping before the bounds check, zero-width row allocation, NaN
//      escaping a sortedness check, duplicate option keys collapsing
//      silently) is asserted rejected, and so is the retired wire tag 7.
//   3. Systematic malformed inputs: for every golden payload, truncation at
//      every byte boundary; oversized length fields; unknown tag, version,
//      and engine bytes.
//
// This file is deliberately a *_test.cc under ctest: the fuzz targets only
// run in the CI fuzz-smoke job, but these locked inputs re-run everywhere.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include "fuzz/decode_contract.h"
#include "gtest/gtest.h"
#include "vector/sparse_vector.h"

namespace ipsketch {
namespace {

std::filesystem::path SourcePath(const char* relative) {
  return std::filesystem::path(IPSKETCH_SOURCE_DIR) / relative;
}

std::string ReadFileOrDie(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path
                         << " (run tools/make_corpus.py?)";
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string FromHex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

/// The golden empty v2 store (a "wmh" store: dimension 512, m = 64, seed
/// 42, L = 4096, dart engine) with its final u64, the zero entry count,
/// replaced by `entries` and the checksum trailer re-sealed, so the entry
/// section itself (not the trailer) must reject a bad file.
std::string ResealedStore(std::string_view entries) {
  const std::string empty = ReadFileOrDie(
      SourcePath("fuzz/corpus/fuzz_store_decode/golden_store_v2_empty"));
  EXPECT_GE(empty.size(), 16u);
  std::string payload = empty.substr(0, empty.size() - 16);
  payload.append(entries);
  wire::AppendU64(&payload, fuzz::StoreChecksum(payload));
  return payload;
}

/// ResealedStore with one entry, id 1, holding `sketch_bytes`.
std::string StoreWithOneEntry(std::string_view sketch_bytes) {
  std::string entries;
  wire::AppendU64(&entries, 1);  // entry count
  wire::AppendU64(&entries, 1);  // id
  wire::AppendBytes(&entries, sketch_bytes);
  return ResealedStore(entries);
}

// --- 1. replay every checked-in regression file ------------------------------

TEST(WireFuzzRegressions, ReplaysEveryRegressionFile) {
  const auto dir = SourcePath("fuzz/regressions");
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    SCOPED_TRACE(entry.path().filename().string());
    const std::string bytes = ReadFileOrDie(entry.path());
    // A contract violation aborts; any sanitizer finding fails the build's
    // sanitizer CI jobs. Reaching the end of the loop is the assertion.
    fuzz::CheckAllDecoders(bytes);
    ++replayed;
  }
  // The named seeds for the originally fixed bugs must always be present.
  EXPECT_GE(replayed, 5u);
}

// --- 2. named regressions for fixed decoder bugs ------------------------------

TEST(WireFuzzRegressions, CountSketchShapeProductCannotWrap) {
  // reps = width = 2^32: the old `reps * width` bounds pre-check wrapped to
  // 0 and then allocated 2^32 tables.
  const std::string bytes =
      ReadFileOrDie(SourcePath("fuzz/regressions/cs_shape_overflow"));
  EXPECT_FALSE(DeserializeCountSketch(bytes).ok());
}

TEST(WireFuzzRegressions, CountSketchZeroWidthRowsRejected) {
  // width = 0 rows consume no payload bytes, so any reps value passed the
  // old remaining-bytes check and allocated that many empty rows.
  const std::string bytes =
      ReadFileOrDie(SourcePath("fuzz/regressions/cs_zero_width_rows"));
  EXPECT_FALSE(DeserializeCountSketch(bytes).ok());
}

TEST(WireFuzzRegressions, RetiredTagSevenRejectedEverywhere) {
  // Tag 7 is retired and never reused. A well-formed payload under it (the
  // last golden bytes its codec produced: seed 7, dimension 512, 96 bits
  // in two words, norm 2.5) and the checked-in word-count overflow payload
  // must fail every registered family's decoder.
  const std::string well_formed = FromHex(
      "4853504902070700000000000000000200000000000060000000000000000000000000"
      "0004400200000000000000efcdab89674523010000ffff00000000");
  const std::string overflow =
      ReadFileOrDie(SourcePath("fuzz/regressions/simhash_numbits_overflow"));
  FamilyOptions options;
  options.dimension = 512;
  options.num_samples = 64;
  options.seed = 7;
  for (const std::string& bytes : {well_formed, overflow}) {
    ASSERT_GT(bytes.size(), 5u);
    ASSERT_EQ(bytes[5], 7);  // tag byte follows magic + version
    for (const FamilyInfo& info : RegisteredFamilies()) {
      SCOPED_TRACE(info.name);
      const auto family = MakeFamily(info.name, options);
      ASSERT_TRUE(family.ok()) << family.status().ToString();
      EXPECT_EQ(family.value()->Deserialize(bytes).status().code(),
                StatusCode::kInvalidArgument);
    }
  }

  // A store file carrying a tag-7 entry must not load. The control entry,
  // a real sketch under the store's own options, proves the file is well
  // formed apart from the tag.
  FamilyOptions store_options;
  store_options.dimension = 512;
  store_options.num_samples = 64;
  store_options.seed = 42;
  store_options.params["L"] = "4096";
  store_options.params["engine"] = "dart";
  const auto wmh = MakeFamily("wmh", store_options);
  ASSERT_TRUE(wmh.ok()) << wmh.status().ToString();
  auto sketcher = wmh.value()->MakeSketcher();
  ASSERT_TRUE(sketcher.ok()) << sketcher.status().ToString();
  auto sketch = wmh.value()->NewSketch();
  ASSERT_TRUE(sketcher.value()
                  ->Sketch(SparseVector::MakeOrDie(512, {{3, 1.0}, {9, -2.0}}),
                           sketch.get())
                  .ok());
  const auto control = DecodeSketchStore(
      StoreWithOneEntry(wmh.value()->Serialize(*sketch).value()));
  ASSERT_TRUE(control.ok()) << control.status().ToString();
  EXPECT_EQ(control.value().size(), 1u);
  EXPECT_EQ(DecodeSketchStore(StoreWithOneEntry(well_formed)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireFuzzRegressions, KmvNanHashRejected) {
  // NaN compares false both ways, so it slipped through the old `<=`
  // sortedness check into the estimator's merge loop.
  const std::string bytes =
      ReadFileOrDie(SourcePath("fuzz/regressions/kmv_nan_hash"));
  EXPECT_FALSE(DeserializeKmv(bytes).ok());
}

TEST(WireFuzzRegressions, FamilyOptionsDuplicateKeyRejected) {
  // Duplicate keys were silently collapsed by the map insert; the block is
  // defined to be canonical (strictly sorted keys), so both duplicates and
  // out-of-order keys are now errors.
  const std::string bytes =
      ReadFileOrDie(SourcePath("fuzz/regressions/family_options_dup_key"));
  wire::BoundedReader r(bytes);
  FamilyOptions options;
  EXPECT_FALSE(ReadFamilyOptions(&r, &options).ok());
}

TEST(WireFuzzRegressions, FamilyOptionsUnsortedKeysRejected) {
  std::string bytes;
  wire::AppendU64(&bytes, 512);  // dimension
  wire::AppendU64(&bytes, 16);   // num_samples
  wire::AppendU64(&bytes, 7);    // seed
  wire::AppendU64(&bytes, 2);    // param count
  wire::AppendBytes(&bytes, "engine");
  wire::AppendBytes(&bytes, "dart");
  wire::AppendBytes(&bytes, "L");  // "L" < "engine": out of order
  wire::AppendBytes(&bytes, "64");
  wire::BoundedReader r(bytes);
  FamilyOptions options;
  EXPECT_FALSE(ReadFamilyOptions(&r, &options).ok());
}

// --- 3a. truncation at every byte boundary ------------------------------------

struct GoldenCase {
  const char* corpus_file;  // relative to the repo root
  Status (*decode)(std::string_view);
};

// One decode wrapper per golden payload; the corpus seed files written by
// tools/make_corpus.py are the byte source, so this sweep also proves every
// checked-in seed is accepted by its decoder.
const GoldenCase kGoldenCases[] = {
    {"fuzz/corpus/fuzz_wmh_decode/golden_wmh",
     [](std::string_view b) { return DeserializeWmh(b).status(); }},
    {"fuzz/corpus/fuzz_wmh_decode/v1_wmh",
     [](std::string_view b) { return DeserializeWmh(b).status(); }},
    {"fuzz/corpus/fuzz_mh_decode/golden_mh",
     [](std::string_view b) { return DeserializeMh(b).status(); }},
    {"fuzz/corpus/fuzz_kmv_decode/golden_kmv",
     [](std::string_view b) { return DeserializeKmv(b).status(); }},
    {"fuzz/corpus/fuzz_jl_decode/golden_jl",
     [](std::string_view b) { return DeserializeJl(b).status(); }},
    {"fuzz/corpus/fuzz_cs_decode/golden_cs",
     [](std::string_view b) { return DeserializeCountSketch(b).status(); }},
    {"fuzz/corpus/fuzz_icws_decode/golden_icws",
     [](std::string_view b) { return DeserializeIcws(b).status(); }},
    {"fuzz/corpus/fuzz_icws_decode/v1_icws",
     [](std::string_view b) { return DeserializeIcws(b).status(); }},
    {"fuzz/corpus/fuzz_wmh_compact_decode/golden_compact_wmh",
     [](std::string_view b) { return DeserializeCompactWmh(b).status(); }},
    {"fuzz/corpus/fuzz_wmh_bbit_decode/golden_bbit_wmh",
     [](std::string_view b) { return DeserializeBbitWmh(b).status(); }},
    {"fuzz/corpus/fuzz_store_decode/golden_store_v2_empty",
     [](std::string_view b) { return DecodeSketchStore(b).status(); }},
    {"fuzz/corpus/fuzz_store_decode/golden_store_compact_empty",
     [](std::string_view b) { return DecodeSketchStore(b).status(); }},
    {"fuzz/corpus/fuzz_store_decode/v1_store_empty",
     [](std::string_view b) { return DecodeSketchStore(b).status(); }},
};

TEST(WireFuzzRegressions, TruncationAtEveryByteBoundaryRejectsCleanly) {
  for (const GoldenCase& c : kGoldenCases) {
    SCOPED_TRACE(c.corpus_file);
    const std::string bytes = ReadFileOrDie(SourcePath(c.corpus_file));
    ASSERT_FALSE(bytes.empty());
    EXPECT_TRUE(c.decode(bytes).ok()) << c.decode(bytes).ToString();
    for (size_t len = 0; len < bytes.size(); ++len) {
      const std::string_view prefix(bytes.data(), len);
      EXPECT_FALSE(c.decode(prefix).ok())
          << "prefix of length " << len << " decoded";
      // And the full contract must hold on every prefix for every decoder.
      fuzz::CheckAllDecoders(prefix);
    }
  }
}

// --- 3b. oversized length fields ----------------------------------------------

TEST(WireFuzzRegressions, OversizedVectorCountsRejected) {
  constexpr uint64_t kAbsurd = uint64_t{1} << 61;
  {
    std::string b;
    wire::AppendU32(&b, 0x49505348);
    wire::AppendU8(&b, 2);
    wire::AppendU8(&b, 4);  // kJl
    wire::AppendU64(&b, 7);    // seed
    wire::AppendU64(&b, 512);  // dimension
    wire::AppendU64(&b, kAbsurd);  // projection count, no payload behind it
    EXPECT_FALSE(DeserializeJl(b).ok());
  }
  {
    std::string b;
    wire::AppendU32(&b, 0x49505348);
    wire::AppendU8(&b, 2);
    wire::AppendU8(&b, 1);  // kWmh
    wire::AppendU64(&b, 7);     // seed
    wire::AppendU64(&b, 4096);  // L
    wire::AppendU64(&b, 512);   // dimension
    wire::AppendU8(&b, 0);      // engine
    wire::AppendDouble(&b, 1.0);   // norm
    wire::AppendU64(&b, kAbsurd);  // hashes count
    EXPECT_FALSE(DeserializeWmh(b).ok());
  }
  {
    std::string b;
    wire::AppendU64(&b, 512);      // dimension
    wire::AppendU64(&b, 16);       // num_samples
    wire::AppendU64(&b, 7);        // seed
    wire::AppendU64(&b, kAbsurd);  // param count
    wire::BoundedReader r(b);
    FamilyOptions options;
    EXPECT_FALSE(ReadFamilyOptions(&r, &options).ok());
  }
}

TEST(WireFuzzRegressions, OversizedStoreEntryCountRejected) {
  std::string entries;
  wire::AppendU64(&entries, uint64_t{1} << 61);  // entry count, no entries
  EXPECT_FALSE(DecodeSketchStore(ResealedStore(entries)).ok());
}

// --- 3c. unknown tag / version / engine bytes ---------------------------------

TEST(WireFuzzRegressions, UnknownTagAndVersionBytesRejected) {
  const std::string golden =
      ReadFileOrDie(SourcePath("fuzz/corpus/fuzz_wmh_decode/golden_wmh"));
  // 7 is the retired tag; 0, 10 and 255 were never assigned.
  for (uint8_t tag : {uint8_t{0}, uint8_t{7}, uint8_t{10}, uint8_t{255}}) {
    std::string b = golden;
    b[5] = static_cast<char>(tag);  // tag byte follows magic + version
    EXPECT_FALSE(DeserializeWmh(b).ok()) << unsigned{tag};
  }
  std::string bad_version = golden;
  bad_version[4] = 3;
  EXPECT_FALSE(DeserializeWmh(bad_version).ok());
  // Tags 8/9 are v2-only: a v1 header on them is corruption, not history.
  const std::string compact = ReadFileOrDie(
      SourcePath("fuzz/corpus/fuzz_wmh_compact_decode/golden_compact_wmh"));
  std::string v1_compact = compact;
  v1_compact[4] = 1;
  EXPECT_FALSE(DeserializeCompactWmh(v1_compact).ok());
}

TEST(WireFuzzRegressions, UnknownEngineAndHashKindBytesRejected) {
  {
    std::string b = ReadFileOrDie(
        SourcePath("fuzz/corpus/fuzz_wmh_decode/golden_wmh"));
    b[30] = 99;  // engine byte: 6-byte header + seed + L + dimension
    EXPECT_FALSE(DeserializeWmh(b).ok());
  }
  {
    std::string b = ReadFileOrDie(
        SourcePath("fuzz/corpus/fuzz_icws_decode/golden_icws"));
    b[22] = 99;  // engine byte: 6-byte header + seed + dimension
    EXPECT_FALSE(DeserializeIcws(b).ok());
  }
  {
    std::string b = ReadFileOrDie(
        SourcePath("fuzz/corpus/fuzz_kmv_decode/golden_kmv"));
    b[30] = 99;  // hash-kind byte: 6-byte header + seed + dimension + k
    EXPECT_FALSE(DeserializeKmv(b).ok());
  }
  {
    // v1 store files carry a trailing engine byte in the fixed header;
    // only 0 and 1 ever existed.
    std::string bytes = ReadFileOrDie(
        SourcePath("fuzz/corpus/fuzz_store_decode/v1_store_empty"));
    ASSERT_GE(bytes.size(), 16u);
    std::string payload = bytes.substr(0, bytes.size() - 8);
    payload[4 + 1 + 8 * 5] = 2;  // magic + version + five u64 fields
    std::string resealed = payload;
    wire::AppendU64(&resealed, fuzz::StoreChecksum(payload));
    EXPECT_FALSE(DecodeSketchStore(resealed).ok());
  }
}

}  // namespace
}  // namespace ipsketch
