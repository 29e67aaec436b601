#include "service/persistence.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/wmh_sketch.h"
#include "data/synthetic.h"
#include "service/metrics.h"
#include "service/query_engine.h"
#include "sketch/serialize.h"

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

SketchStoreOptions SmallStoreOptions(const std::string& family = "wmh") {
  SketchStoreOptions opts;
  opts.family = family;
  opts.sketch.dimension = kDim;
  opts.sketch.num_samples = 64;
  opts.sketch.seed = 42;
  opts.num_shards = 8;
  return opts;
}

SketchStore MakePopulatedStore(size_t count,
                               const std::string& family = "wmh") {
  auto store = SketchStore::Make(SmallStoreOptions(family)).value();
  for (uint64_t i = 0; i < count; ++i) {
    EXPECT_TRUE(store.BuildAndInsert(i * 11, RandomVector(i)).ok());
  }
  return store;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// FNV-1a, mirroring the persistence trailer — used to hand-build legacy
// v1 files.
uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// The per-sketch *v1* WMH payload — same fields as today's v2 minus the
// engine byte. Legacy store files contain exactly these bytes; building
// them by hand keeps the legacy tests faithful to what v1 writers emitted.
std::string V1WmhPayload(const WmhSketch& wmh) {
  std::string blob;
  wire::AppendU32(&blob, 0x49505348);  // "IPSH"
  wire::AppendU8(&blob, 1);
  wire::AppendU8(&blob, 1);  // kWmh
  wire::AppendU64(&blob, wmh.seed);
  wire::AppendU64(&blob, wmh.L);
  wire::AppendU64(&blob, wmh.dimension);
  wire::AppendDouble(&blob, wmh.norm);
  wire::AppendU64(&blob, wmh.hashes.size());
  for (double h : wmh.hashes) wire::AppendDouble(&blob, h);
  wire::AppendU64(&blob, wmh.values.size());
  for (double v : wmh.values) wire::AppendDouble(&blob, v);
  return blob;
}

TEST(StorePersistenceTest, SaveLoadPreservesOptionsAndContents) {
  const auto store = MakePopulatedStore(60);
  const std::string path = TempPath("store_roundtrip.bin");
  ASSERT_TRUE(SaveSketchStore(store, path).ok());

  auto loaded = LoadSketchStore(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const SketchStore& reloaded = loaded.value();

  EXPECT_EQ(reloaded.options().family, store.options().family);
  EXPECT_EQ(reloaded.options().num_shards, store.options().num_shards);
  // Resolved family options (including materialized defaults like WMH's L)
  // survive verbatim.
  EXPECT_EQ(reloaded.options().sketch, store.options().sketch);
  EXPECT_EQ(reloaded.size(), store.size());
  EXPECT_EQ(reloaded.Ids(), store.Ids());
  std::remove(path.c_str());
}

TEST(StorePersistenceTest, ReloadedEstimatesAreByteIdentical) {
  const auto store = MakePopulatedStore(60);
  const std::string path = TempPath("store_estimates.bin");
  ASSERT_TRUE(SaveSketchStore(store, path).ok());
  auto loaded = LoadSketchStore(path);
  ASSERT_TRUE(loaded.ok());

  QueryEngine before(&store);
  QueryEngine after(&loaded.value());
  const auto ids = store.Ids();
  Xoshiro256StarStar rng(123);
  for (int trial = 0; trial < 100; ++trial) {
    const uint64_t a = ids[rng.NextBounded(ids.size())];
    const uint64_t b = ids[rng.NextBounded(ids.size())];
    const double x = before.EstimateInnerProduct(a, b).value();
    const double y = after.EstimateInnerProduct(a, b).value();
    // Exact double equality: serialization stores IEEE-754 bit patterns, so
    // the reloaded estimate must be the same to the last bit.
    EXPECT_EQ(x, y) << "pair (" << a << ", " << b << ")";
  }
  std::remove(path.c_str());
}

// The family-generic persistence round trip: every registered family's
// store must encode, decode, and reproduce byte-identical estimates.
TEST(StorePersistenceTest, EveryFamilyRoundTripsWithIdenticalEstimates) {
  for (const FamilyInfo& info : RegisteredFamilies()) {
    const auto store = MakePopulatedStore(20, info.name);
    auto reloaded = DecodeSketchStore(EncodeSketchStore(store));
    ASSERT_TRUE(reloaded.ok())
        << info.name << ": " << reloaded.status().ToString();
    EXPECT_EQ(reloaded.value().options().family, info.name);
    EXPECT_EQ(reloaded.value().options().sketch, store.options().sketch);
    ASSERT_EQ(reloaded.value().Ids(), store.Ids()) << info.name;

    QueryEngine before(&store);
    QueryEngine after(&reloaded.value());
    const auto ids = store.Ids();
    for (size_t i = 1; i < ids.size(); ++i) {
      EXPECT_EQ(before.EstimateInnerProduct(ids[0], ids[i]).value(),
                after.EstimateInnerProduct(ids[0], ids[i]).value())
          << info.name << " pair (" << ids[0] << ", " << ids[i] << ")";
    }
  }
}

TEST(StorePersistenceTest, EncodingIsDeterministic) {
  const auto store = MakePopulatedStore(30);
  const std::string bytes = EncodeSketchStore(store);
  EXPECT_EQ(bytes, EncodeSketchStore(store));

  auto reloaded = DecodeSketchStore(bytes);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(EncodeSketchStore(reloaded.value()), bytes);
}

TEST(StorePersistenceTest, EmptyStoreRoundTrips) {
  const auto store = MakePopulatedStore(0);
  auto reloaded = DecodeSketchStore(EncodeSketchStore(store));
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value().size(), 0u);
}

// The acceptance path for compact catalogs: load-or-build a full-precision
// WMH store, quantize it, save — the compact file round-trips byte-
// identically, serves identical estimates, and is refused when opened with
// full-precision expectations.
TEST(StorePersistenceTest, QuantizedStoreRoundTripsByteIdentically) {
  auto store = MakePopulatedStore(40);
  store = QuantizeStore(store, "wmh_compact").value();

  const std::string path = TempPath("compact_catalog.store");
  ASSERT_TRUE(SaveSketchStore(store, path).ok());
  // Reopening requires the compact identity — the resolved options of the
  // source WMH store under family "wmh_compact".
  auto expected = SmallStoreOptions("wmh_compact");
  auto reloaded = LoadSketchStoreAs(path, expected);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value().options().family, "wmh_compact");
  EXPECT_EQ(reloaded.value().TotalStorageWords(),
            store.TotalStorageWords());

  // Byte-identical round trip, byte-identical estimates.
  EXPECT_EQ(EncodeSketchStore(reloaded.value()), EncodeSketchStore(store));
  QueryEngine before(&store);
  QueryEngine after(&reloaded.value());
  const auto ids = store.Ids();
  for (size_t i = 1; i < ids.size(); ++i) {
    EXPECT_EQ(before.EstimateInnerProduct(ids[0], ids[i]).value(),
              after.EstimateInnerProduct(ids[0], ids[i]).value());
  }

  // The same file is refused under full-precision "wmh" expectations.
  EXPECT_EQ(LoadSketchStoreAs(path, SmallStoreOptions()).status().code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// A legacy version-1 file — the WMH-only format written before the
// SketchFamily redesign — must still load, as a "wmh" store with identical
// estimates. The v1 bytes are built by hand here, field for field.
TEST(StorePersistenceTest, ReadsLegacyV1WmhFile) {
  // v1 files predate the dart engine: their header can only declare
  // active_index or expanded_reference, so the comparison store is pinned
  // to active_index rather than the current default.
  auto v1_options = SmallStoreOptions();
  v1_options.sketch.params["engine"] = "active_index";
  auto store = SketchStore::Make(v1_options).value();
  for (uint64_t i = 0; i < 25; ++i) {
    ASSERT_TRUE(store.BuildAndInsert(i * 11, RandomVector(i)).ok());
  }
  const WmhOptions wmh_options = [&] {
    WmhOptions o;
    o.num_samples = store.options().sketch.num_samples;
    o.seed = store.options().sketch.seed;
    o.L = std::stoull(store.options().sketch.params.at("L"));
    return o;
  }();

  // v1 layout: [magic][version=1][dimension][num_shards][num_samples]
  // [seed][L][engine u8][count][id, SerializeWmh bytes]*[fnv1a].
  std::string v1;
  wire::AppendU32(&v1, 0x49505354);  // "IPST"
  wire::AppendU8(&v1, 1);
  wire::AppendU64(&v1, kDim);
  wire::AppendU64(&v1, store.options().num_shards);
  wire::AppendU64(&v1, wmh_options.num_samples);
  wire::AppendU64(&v1, wmh_options.seed);
  wire::AppendU64(&v1, wmh_options.L);
  wire::AppendU8(&v1, 0);  // kActiveIndex
  const auto views = store.PinStore();
  wire::AppendU64(&v1, store.size());
  for (const auto& view : views) {
    for (size_t i = 0; i < view->ids.size(); ++i) {
      const WmhSketch* wmh = GetSketchAs<WmhSketch>(*view->sketches[i]);
      ASSERT_NE(wmh, nullptr);
      wire::AppendU64(&v1, view->ids[i]);
      wire::AppendBytes(&v1, V1WmhPayload(*wmh));
    }
  }
  wire::AppendU64(&v1, Fnv1a(v1));

  auto loaded = DecodeSketchStore(v1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().options().family, "wmh");
  EXPECT_EQ(loaded.value().options().sketch, store.options().sketch);
  EXPECT_EQ(loaded.value().Ids(), store.Ids());

  QueryEngine before(&store);
  QueryEngine after(&loaded.value());
  const auto ids = store.Ids();
  for (size_t i = 1; i < ids.size(); ++i) {
    EXPECT_EQ(before.EstimateInnerProduct(ids[0], ids[i]).value(),
              after.EstimateInnerProduct(ids[0], ids[i]).value());
  }

  // Re-encoding a v1-loaded store produces a v2 file that round-trips.
  auto reencoded = DecodeSketchStore(EncodeSketchStore(loaded.value()));
  ASSERT_TRUE(reencoded.ok());
  EXPECT_EQ(reencoded.value().Ids(), store.Ids());
}

// Decode stages each shard and publishes it once. It must still accept
// entries in any order and let a later entry for an id replace an earlier
// one, so a hand-built file with descending and repeated ids decodes to
// exactly the store an Insert per entry builds.
TEST(StorePersistenceTest, DecodeAcceptsUnorderedAndRepeatedIds) {
  auto reference = SketchStore::Make(SmallStoreOptions()).value();
  const SketchFamily& family = reference.family();
  auto sketcher = family.MakeSketcher().value();
  // (id, vector seed) in file order: descending ids, then two repeats.
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (uint64_t i = 0; i < 40; ++i) entries.push_back({(40 - i) * 7, i});
  entries.push_back({140, 100});
  entries.push_back({7, 101});

  std::string file;
  wire::AppendU32(&file, 0x49505354);  // "IPST"
  wire::AppendU8(&file, 2);
  wire::AppendBytes(&file, reference.options().family);
  wire::AppendU64(&file, reference.options().num_shards);
  AppendFamilyOptions(&file, reference.options().sketch);
  wire::AppendU64(&file, entries.size());
  for (const auto& [id, seed] : entries) {
    auto sketch = family.NewSketch();
    ASSERT_TRUE(sketcher->Sketch(RandomVector(seed), sketch.get()).ok());
    wire::AppendU64(&file, id);
    wire::AppendBytes(&file, family.Serialize(*sketch).value());
    ASSERT_TRUE(reference.Insert(id, std::move(sketch)).ok());
  }
  wire::AppendU64(&file, Fnv1a(file));

  auto decoded = DecodeSketchStore(file);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().size(), 40u);
  EXPECT_EQ(decoded.value().size(), reference.size());
  EXPECT_EQ(decoded.value().Ids(), reference.Ids());
  EXPECT_EQ(EncodeSketchStore(decoded.value()), EncodeSketchStore(reference));
}

// Per-sketch v1 payloads carry no engine byte; their engine comes from the
// store header. A v1 file declaring expanded_reference must load with its
// sketches adopted to that engine — not rejected as active_index.
TEST(StorePersistenceTest, ReadsLegacyV1ExpandedReferenceFile) {
  auto options = SmallStoreOptions();
  options.sketch.params["engine"] = "expanded_reference";
  options.sketch.params["L"] = "2048";  // small enough for the oracle
  auto store = SketchStore::Make(options).value();
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(store.BuildAndInsert(i * 7, RandomVector(i)).ok());
  }

  std::string v1;
  wire::AppendU32(&v1, 0x49505354);  // "IPST"
  wire::AppendU8(&v1, 1);
  wire::AppendU64(&v1, kDim);
  wire::AppendU64(&v1, store.options().num_shards);
  wire::AppendU64(&v1, store.options().sketch.num_samples);
  wire::AppendU64(&v1, store.options().sketch.seed);
  wire::AppendU64(&v1, 2048);
  wire::AppendU8(&v1, 1);  // kExpandedReference
  const auto views = store.PinStore();
  wire::AppendU64(&v1, store.size());
  for (const auto& view : views) {
    for (size_t i = 0; i < view->ids.size(); ++i) {
      const WmhSketch* wmh = GetSketchAs<WmhSketch>(*view->sketches[i]);
      ASSERT_NE(wmh, nullptr);
      wire::AppendU64(&v1, view->ids[i]);
      wire::AppendBytes(&v1, V1WmhPayload(*wmh));
    }
  }
  wire::AppendU64(&v1, Fnv1a(v1));

  auto loaded = DecodeSketchStore(v1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().options().sketch.params.at("engine"),
            "expanded_reference");
  EXPECT_EQ(loaded.value().Ids(), store.Ids());
  QueryEngine before(&store);
  QueryEngine after(&loaded.value());
  const auto ids = store.Ids();
  for (size_t i = 1; i < ids.size(); ++i) {
    EXPECT_EQ(before.EstimateInnerProduct(ids[0], ids[i]).value(),
              after.EstimateInnerProduct(ids[0], ids[i]).value());
  }
}

// v2 icws store files written before the engine/L params existed carry an
// empty params block and exact-engine sketches; they must keep loading as
// the exact engine, not resolve to the modern dart default (which would
// reject every stored sketch).
TEST(StorePersistenceTest, ReadsEnginelessV2IcwsFile) {
  auto exact_options = SmallStoreOptions("icws");
  exact_options.sketch.params["engine"] = "icws";
  auto store = SketchStore::Make(exact_options).value();
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(store.BuildAndInsert(i * 5, RandomVector(i)).ok());
  }

  // Hand-build the old file: v2 store header with NO params, per-sketch v1
  // payloads (no engine/L fields) — exactly what the pre-dart writer
  // produced.
  std::string old_file;
  wire::AppendU32(&old_file, 0x49505354);  // "IPST"
  wire::AppendU8(&old_file, 2);
  wire::AppendBytes(&old_file, "icws");
  wire::AppendU64(&old_file, store.options().num_shards);
  wire::AppendU64(&old_file, kDim);
  wire::AppendU64(&old_file, store.options().sketch.num_samples);
  wire::AppendU64(&old_file, store.options().sketch.seed);
  wire::AppendU64(&old_file, 0);  // param count: engine-less era
  const auto views = store.PinStore();
  wire::AppendU64(&old_file, store.size());
  for (const auto& view : views) {
    for (size_t i = 0; i < view->ids.size(); ++i) {
      const IcwsSketch* icws = GetSketchAs<IcwsSketch>(*view->sketches[i]);
      ASSERT_NE(icws, nullptr);
      std::string blob;
      wire::AppendU32(&blob, 0x49505348);  // "IPSH"
      wire::AppendU8(&blob, 1);
      wire::AppendU8(&blob, 6);  // kIcws
      wire::AppendU64(&blob, icws->seed);
      wire::AppendU64(&blob, icws->dimension);
      wire::AppendDouble(&blob, icws->norm);
      wire::AppendU64(&blob, icws->fingerprints.size());
      for (uint64_t fp : icws->fingerprints) wire::AppendU64(&blob, fp);
      wire::AppendU64(&blob, icws->values.size());
      for (double v : icws->values) wire::AppendDouble(&blob, v);
      wire::AppendU64(&old_file, view->ids[i]);
      wire::AppendBytes(&old_file, blob);
    }
  }
  wire::AppendU64(&old_file, Fnv1a(old_file));

  auto loaded = DecodeSketchStore(old_file);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().options().sketch.params.at("engine"), "icws");
  EXPECT_EQ(loaded.value().Ids(), store.Ids());
  QueryEngine before(&store);
  QueryEngine after(&loaded.value());
  const auto ids = store.Ids();
  for (size_t i = 1; i < ids.size(); ++i) {
    EXPECT_EQ(before.EstimateInnerProduct(ids[0], ids[i]).value(),
              after.EstimateInnerProduct(ids[0], ids[i]).value());
  }
}

// Opening a file with the wrong expectations must fail loudly, not load
// into silently incompatible estimates.
TEST(StorePersistenceTest, LoadAsRejectsMismatchedFamilyOrOptions) {
  const auto store = MakePopulatedStore(10);
  const std::string path = TempPath("store_mismatch.bin");
  ASSERT_TRUE(SaveSketchStore(store, path).ok());

  // The honest expectation loads (including with unresolved defaults:
  // no L param at all resolves to the same DefaultL the file holds).
  EXPECT_TRUE(LoadSketchStoreAs(path, SmallStoreOptions()).ok());

  // Wrong family.
  auto wrong_family = LoadSketchStoreAs(path, SmallStoreOptions("cs"));
  EXPECT_EQ(wrong_family.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(wrong_family.status().message().find("family"),
            std::string::npos);

  // Wrong seed.
  SketchStoreOptions wrong_seed = SmallStoreOptions();
  wrong_seed.sketch.seed = 43;
  EXPECT_EQ(LoadSketchStoreAs(path, wrong_seed).status().code(),
            StatusCode::kFailedPrecondition);

  // Wrong sample count.
  SketchStoreOptions wrong_m = SmallStoreOptions();
  wrong_m.sketch.num_samples = 128;
  EXPECT_EQ(LoadSketchStoreAs(path, wrong_m).status().code(),
            StatusCode::kFailedPrecondition);

  // Wrong family param (L).
  SketchStoreOptions wrong_l = SmallStoreOptions();
  wrong_l.sketch.params["L"] = "12345";
  EXPECT_EQ(LoadSketchStoreAs(path, wrong_l).status().code(),
            StatusCode::kFailedPrecondition);

  std::remove(path.c_str());
}

// Corruption rejection is a per-family property — each family frames its
// own payloads inside the store's entry stream — so the sweep runs once
// per registered family, not just for WMH.
class CorruptedStoreTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CorruptedStoreTest, RejectsCorruptedBytes) {
  const auto store = MakePopulatedStore(10, GetParam());
  std::string bytes = EncodeSketchStore(store);

  EXPECT_FALSE(DecodeSketchStore("").ok());
  EXPECT_FALSE(DecodeSketchStore("IPSX junk").ok());
  // Truncation anywhere inside the entry stream must be detected.
  EXPECT_FALSE(DecodeSketchStore(
                   std::string_view(bytes).substr(0, bytes.size() - 3))
                   .ok());
  EXPECT_FALSE(DecodeSketchStore(
                   std::string_view(bytes).substr(0, bytes.size() / 2))
                   .ok());
  // Trailing garbage after the last entry must be detected.
  EXPECT_FALSE(DecodeSketchStore(bytes + "x").ok());
  // A flipped magic byte must be detected.
  std::string bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(DecodeSketchStore(bad_magic).ok());
  // A flipped byte *inside a sketch payload* is structurally valid wire
  // data; the checksum trailer must catch it at every position.
  for (size_t pos = 0; pos < bytes.size(); pos += 7) {
    std::string flipped = bytes;
    flipped[pos] ^= 0x41;
    EXPECT_FALSE(DecodeSketchStore(flipped).ok()) << "flip at " << pos;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, CorruptedStoreTest,
    ::testing::ValuesIn([] {
      std::vector<std::string> names;
      for (const FamilyInfo& info : RegisteredFamilies()) {
        names.push_back(info.name);
      }
      return names;
    }()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      name.erase(std::remove(name.begin(), name.end(), '_'), name.end());
      return name;
    });

TEST(StorePersistenceTest, RejectsAbsurdShardCounts) {
  const auto store = MakePopulatedStore(3);
  const std::string bytes = EncodeSketchStore(store);
  // num_shards sits right after [magic u32][version u8][len u64]["wmh"];
  // blow it up to 2^64-1 and re-seal the checksum so only the shard-count
  // guard can reject the file (not the corruption trailer).
  const size_t offset = 4 + 1 + 8 + 3;
  std::string patched = bytes.substr(0, bytes.size() - 8);
  for (size_t i = 0; i < 8; ++i) patched[offset + i] = '\xff';
  wire::AppendU64(&patched, Fnv1a(patched));
  auto decoded = DecodeSketchStore(patched);
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("shard count"),
            std::string::npos);
}

// A fresh, empty directory under the test temp dir.
std::string FreshDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      (name + "." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// The names in `dir`, sorted.
std::vector<std::string> DirEntries(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// A save cut short by a file-size limit (standing in for a full disk) must
// fail without touching the last good catalog, and leave no temp behind.
TEST(StorePersistenceTest, ShortWriteLeavesPreviousFileIntact) {
  const std::string dir = FreshDir("short_write");
  const std::string path = dir + "/catalog.store";
  auto store = MakePopulatedStore(200);
  ASSERT_TRUE(SaveSketchStore(store, path).ok());
  const std::string good = ReadFile(path);
  ASSERT_GT(good.size(), 4096u);

  // Over the limit, write() fails with EFBIG instead of raising SIGXFSZ.
  rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  rlimit small = old_limit;
  small.rlim_cur = 4096;
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &small), 0);
  const Status st = SaveSketchStore(store, path);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  std::signal(SIGXFSZ, old_handler);

  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(ReadFile(path), good);
  EXPECT_EQ(DirEntries(dir), std::vector<std::string>{"catalog.store"});
  auto reloaded = LoadSketchStore(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(EncodeSketchStore(reloaded.value()), good);
  std::filesystem::remove_all(dir);
}

// The rename is the commit point: when it fails (here the target is a
// non-empty directory) the save reports it and cleans up its temp.
TEST(StorePersistenceTest, FailedRenameReportsErrorAndLeavesNoTemp) {
  const std::string dir = FreshDir("failed_rename");
  const std::string target = dir + "/catalog.store";
  std::filesystem::create_directories(target);
  std::ofstream(target + "/occupant") << "x";

  auto store = MakePopulatedStore(10);
  const Status st = SaveSketchStore(store, target);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(DirEntries(dir), std::vector<std::string>{"catalog.store"});
  EXPECT_EQ(DirEntries(target), std::vector<std::string>{"occupant"});
  std::filesystem::remove_all(dir);
}

TEST(StorePersistenceTest, LoadMissingFileIsNotFound) {
  EXPECT_EQ(LoadSketchStore(TempPath("does_not_exist.bin")).status().code(),
            StatusCode::kNotFound);
}

// Each persistence metric moves by exactly what one call does: a save adds
// one save_ns sample and the file's size to bytes_written, a load one
// load_ns sample and the file's size to bytes_read, and only a load whose
// checksum fails adds to checksum_failures.
TEST(StorePersistenceTest, PersistenceMetricsMoveOncePerCall) {
  auto& registry = metrics::MetricsRegistry::Global();
  auto& save_ns = registry.GetHistogram("ipsketch_persist_save_ns");
  auto& load_ns = registry.GetHistogram("ipsketch_persist_load_ns");
  auto& written = registry.GetCounter("ipsketch_persist_bytes_written_total");
  auto& read = registry.GetCounter("ipsketch_persist_bytes_read_total");
  auto& checksum_failures =
      registry.GetCounter("ipsketch_persist_checksum_failures_total");
  const std::string dir = FreshDir("persist_metrics");
  const std::string path = dir + "/catalog.store";
  const auto store = MakePopulatedStore(20);

  const uint64_t saves = save_ns.Count();
  const uint64_t bytes_written = written.Value();
  ASSERT_TRUE(SaveSketchStore(store, path).ok());
  const std::string bytes = ReadFile(path);
  EXPECT_EQ(save_ns.Count(), saves + 1);
  EXPECT_EQ(written.Value(), bytes_written + bytes.size());

  const uint64_t loads = load_ns.Count();
  const uint64_t bytes_read = read.Value();
  const uint64_t failures = checksum_failures.Value();
  ASSERT_TRUE(LoadSketchStore(path).ok());
  EXPECT_EQ(load_ns.Count(), loads + 1);
  EXPECT_EQ(read.Value(), bytes_read + bytes.size());
  EXPECT_EQ(checksum_failures.Value(), failures);

  // One flipped byte in the middle of the entry stream.
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x41;
  const std::string flipped_path = dir + "/flipped.store";
  std::ofstream(flipped_path, std::ios::binary) << flipped;
  auto loaded = LoadSketchStore(flipped_path);
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos);
  EXPECT_EQ(load_ns.Count(), loads + 2);
  EXPECT_EQ(read.Value(), bytes_read + 2 * bytes.size());
  EXPECT_EQ(checksum_failures.Value(), failures + 1);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ipsketch
