// Golden-bytes lock on the wire formats: the exact serialized bytes of one
// hand-built sketch per registered family, the persistence v2 store header,
// and the legacy per-sketch v1 decoding rules.
//
// Sketches are *stored* — a drifting wire format (a reordered field, a
// changed default, an endianness slip on a new platform) silently corrupts
// every existing catalog. These tests pin the bytes themselves, so format
// drift fails ctest instead of a customer's store file. The fixtures are
// built by struct assignment with exactly-representable doubles (no
// sketching, no libm), so the expected bytes are identical on every
// platform and compiler.
//
// If a test here fails because the format was *intentionally* changed: bump
// the wire version, keep a decode path for the old one (as v1 → v2 did),
// and only then regenerate the constants.

#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "service/persistence.h"
#include "service/sketch_store.h"
#include "sketch/serialize.h"

namespace ipsketch {
namespace {

std::string ToHex(std::string_view bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

std::string FromHex(std::string_view hex) {
  std::string out;
  out.reserve(hex.size() / 2);
  auto nibble = [](char c) {
    return c <= '9' ? c - '0' : c - 'a' + 10;
  };
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>((nibble(hex[i]) << 4) |
                                    nibble(hex[i + 1])));
  }
  return out;
}

// --- per-family sketch payloads (wire version 2) ----------------------------

constexpr char kGoldenWmh[] =
    "4853504902010700000000000000001000000000000000020000000000000200000000"
    "000004400200000000000000000000000000e03f000000000000d03f02000000000000"
    "00000000000000e83f000000000000e0bf";

TEST(GoldenBytesTest, Wmh) {
  WmhSketch s;
  s.seed = 7;
  s.L = 4096;
  s.dimension = 512;
  s.engine = WmhEngine::kDart;
  s.norm = 2.5;
  s.hashes = {0.5, 0.25};
  s.values = {0.75, -0.5};
  EXPECT_EQ(ToHex(SerializeWmh(s)), kGoldenWmh);

  const auto parsed = DeserializeWmh(FromHex(kGoldenWmh));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().engine, WmhEngine::kDart);
  EXPECT_EQ(parsed.value().L, 4096u);
  EXPECT_EQ(parsed.value().hashes, s.hashes);
}

constexpr char kGoldenIcws[] =
    "4853504902060700000000000000000200000000000001001000000000000000000000"
    "0000044002000000000000001581e97df41022112a0000000000000002000000000000"
    "00000000000000e83f000000000000e0bf";

TEST(GoldenBytesTest, Icws) {
  IcwsSketch s;
  s.seed = 7;
  s.dimension = 512;
  s.norm = 2.5;
  s.engine = IcwsEngine::kDart;
  s.L = 4096;
  s.fingerprints = {1234567890123456789ull, 42};
  s.values = {0.75, -0.5};
  EXPECT_EQ(ToHex(SerializeIcws(s)), kGoldenIcws);

  const auto parsed = DeserializeIcws(FromHex(kGoldenIcws));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().engine, IcwsEngine::kDart);
  EXPECT_EQ(parsed.value().L, 4096u);
  EXPECT_EQ(parsed.value().fingerprints, s.fingerprints);
}

constexpr char kGoldenCompactWmh[] =
    "4853504902080700000000000000001000000000000000020000000000000200000000"
    "000004400200000000000000000000800000004002000000000000000000403f000000"
    "bf";

TEST(GoldenBytesTest, CompactWmh) {
  CompactWmhSketch s;
  s.seed = 7;
  s.L = 4096;
  s.dimension = 512;
  s.engine = WmhEngine::kDart;
  s.norm = 2.5;
  s.hashes = {0x80000000u, 0x40000000u};  // QuantizeHash(0.5), (0.25)
  s.values = {0.75f, -0.5f};
  EXPECT_EQ(ToHex(SerializeCompactWmh(s)), kGoldenCompactWmh);

  const auto parsed = DeserializeCompactWmh(FromHex(kGoldenCompactWmh));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().engine, WmhEngine::kDart);
  EXPECT_EQ(parsed.value().L, 4096u);
  EXPECT_EQ(parsed.value().hashes, s.hashes);
  EXPECT_EQ(parsed.value().values, s.values);
  // Re-encode is byte-identical (float32 values survive as bit patterns).
  EXPECT_EQ(ToHex(SerializeCompactWmh(parsed.value())), kGoldenCompactWmh);
}

constexpr char kGoldenBbitWmh[] =
    "4853504902090700000000000000001000000000000000020000000000000210000000"
    "0000000000000440020000000000000034120000efbe00000200000000000000000040"
    "3f000000bf";

TEST(GoldenBytesTest, BbitWmh) {
  BbitWmhSketch s;
  s.seed = 7;
  s.L = 4096;
  s.dimension = 512;
  s.engine = WmhEngine::kDart;
  s.bits = 16;
  s.norm = 2.5;
  s.fingerprints = {0x1234u, 0xbeefu};
  s.values = {0.75f, -0.5f};
  EXPECT_EQ(ToHex(SerializeBbitWmh(s)), kGoldenBbitWmh);

  const auto parsed = DeserializeBbitWmh(FromHex(kGoldenBbitWmh));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().engine, WmhEngine::kDart);
  EXPECT_EQ(parsed.value().bits, 16u);
  EXPECT_EQ(parsed.value().fingerprints, s.fingerprints);
  EXPECT_EQ(ToHex(SerializeBbitWmh(parsed.value())), kGoldenBbitWmh);

  // Declared-width violations are corruption, not data: a fingerprint
  // above 2ᵇ − 1 must be rejected.
  std::string wide = FromHex(kGoldenBbitWmh);
  // Third fingerprint byte (bits 16..23 of the first fingerprint) is at
  // offset 4+1+1 + 24 + 1 + 4 + 8 + 8 + 2 = 53.
  wide[53] = 0x01;
  EXPECT_FALSE(DeserializeBbitWmh(wide).ok());
}

constexpr char kGoldenMh[] =
    "4853504902020700000000000000000200000000000000020000000000000000000000"
    "0000e03f000000000000d03f0200000000000000000000000000f03f00000000000000"
    "00";

TEST(GoldenBytesTest, Mh) {
  MhSketch s;
  s.seed = 7;
  s.dimension = 512;
  s.hash_kind = HashKind::kMixed64;
  s.hashes = {0.5, 0.25};
  s.values = {1.0, 0.0};
  EXPECT_EQ(ToHex(SerializeMh(s)), kGoldenMh);
  EXPECT_TRUE(DeserializeMh(FromHex(kGoldenMh)).ok());
}

constexpr char kGoldenKmv[] =
    "4853504902030700000000000000000200000000000002000000000000000002000000"
    "00000000000000000000c03f0000000000000840000000000000e03f000000000000f0"
    "bf";

TEST(GoldenBytesTest, Kmv) {
  KmvSketch s;
  s.seed = 7;
  s.dimension = 512;
  s.k = 2;
  s.hash_kind = HashKind::kMixed64;
  s.samples = {{0.125, 3.0}, {0.5, -1.0}};
  EXPECT_EQ(ToHex(SerializeKmv(s)), kGoldenKmv);
  EXPECT_TRUE(DeserializeKmv(FromHex(kGoldenKmv)).ok());
}

constexpr char kGoldenJl[] =
    "4853504902040700000000000000000200000000000002000000000000000000000000"
    "00f83f00000000000004c0";

TEST(GoldenBytesTest, Jl) {
  JlSketch s;
  s.seed = 7;
  s.dimension = 512;
  s.projection = {1.5, -2.5};
  EXPECT_EQ(ToHex(SerializeJl(s)), kGoldenJl);
  EXPECT_TRUE(DeserializeJl(FromHex(kGoldenJl)).ok());
}

constexpr char kGoldenCs[] =
    "4853504902050700000000000000000200000000000002000000000000000200000000"
    "000000000000000000f03f000000000000f0bf000000000000e03f000000000000d03f";

TEST(GoldenBytesTest, CountSketch) {
  CountSketch s;
  s.seed = 7;
  s.dimension = 512;
  s.tables = {{1.0, -1.0}, {0.5, 0.25}};
  EXPECT_EQ(ToHex(SerializeCountSketch(s)), kGoldenCs);
  EXPECT_TRUE(DeserializeCountSketch(FromHex(kGoldenCs)).ok());
}

// --- persistence v2 store header --------------------------------------------

// An *empty* store encodes header + count + checksum only — fully
// deterministic with hand-picked options (nothing libm-dependent).
constexpr char kGoldenStoreV2Empty[] =
    "54535049020300000000000000776d6802000000000000000002000000000000400000"
    "00000000002a00000000000000020000000000000001000000000000004c0400000000"
    "000000343039360600000000000000656e67696e650400000000000000646172740000"
    "000000000000210d05a4a2b1609b";

TEST(GoldenBytesTest, PersistenceV2Header) {
  SketchStoreOptions opts;
  opts.family = "wmh";
  opts.sketch.dimension = 512;
  opts.sketch.num_samples = 64;
  opts.sketch.seed = 42;
  opts.sketch.params["L"] = "4096";
  opts.sketch.params["engine"] = "dart";
  opts.num_shards = 2;
  auto store = SketchStore::Make(opts).value();
  const std::string bytes = EncodeSketchStore(store);
  // Layout: [magic "IPST"][version 2][family "wmh"][num_shards]
  // [dimension][num_samples][seed][param count]["L"="4096"]
  // ["engine"="dart"][entry count 0][fnv1a trailer].
  EXPECT_EQ(ToHex(bytes), kGoldenStoreV2Empty);

  // The golden bytes decode back to exactly these resolved options.
  auto decoded = DecodeSketchStore(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().options().sketch, store.options().sketch);
}

// A compact-catalog store file: same v2 container, family "wmh_compact",
// the resolved {L, engine} identity in the params block.
constexpr char kGoldenStoreCompactEmpty[] =
    "54535049020b00000000000000776d685f636f6d706163740200000000000000000200"
    "000000000040000000000000002a000000000000000200000000000000010000000000"
    "00004c0400000000000000343039360600000000000000656e67696e65040000000000"
    "00006461727400000000000000005b962bedaca8d44b";

TEST(GoldenBytesTest, PersistenceCompactStoreHeader) {
  SketchStoreOptions opts;
  opts.family = "wmh_compact";
  opts.sketch.dimension = 512;
  opts.sketch.num_samples = 64;
  opts.sketch.seed = 42;
  opts.sketch.params["L"] = "4096";
  opts.sketch.params["engine"] = "dart";
  opts.num_shards = 2;
  auto store = SketchStore::Make(opts).value();
  const std::string bytes = EncodeSketchStore(store);
  EXPECT_EQ(ToHex(bytes), kGoldenStoreCompactEmpty);

  auto decoded = DecodeSketchStore(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().options().family, "wmh_compact");
  EXPECT_EQ(decoded.value().options().sketch, store.options().sketch);
}

// --- legacy v1 per-sketch bytes ---------------------------------------------

// Version-1 payloads predate the engine fields; they must keep decoding,
// with the engines every v1 producer used: WMH kActiveIndex, ICWS kExact.
TEST(GoldenBytesTest, LegacyV1WmhBytesDecodeAsActiveIndex) {
  std::string v1;
  wire::AppendU32(&v1, 0x49505348);  // "IPSH"
  wire::AppendU8(&v1, 1);            // version 1
  wire::AppendU8(&v1, 1);            // kWmh
  wire::AppendU64(&v1, 7);           // seed
  wire::AppendU64(&v1, 4096);        // L
  wire::AppendU64(&v1, 512);         // dimension  (no engine byte in v1)
  wire::AppendDouble(&v1, 2.5);      // norm
  wire::AppendU64(&v1, 1);
  wire::AppendDouble(&v1, 0.5);      // hashes
  wire::AppendU64(&v1, 1);
  wire::AppendDouble(&v1, 0.75);     // values

  const auto parsed = DeserializeWmh(v1);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().engine, WmhEngine::kActiveIndex);
  EXPECT_EQ(parsed.value().L, 4096u);
  EXPECT_EQ(parsed.value().norm, 2.5);
  // Re-encoding writes the current version; v1 is decode-only.
  EXPECT_EQ(ToHex(SerializeWmh(parsed.value())).substr(8, 2), "02");
}

TEST(GoldenBytesTest, LegacyV1IcwsBytesDecodeAsExact) {
  std::string v1;
  wire::AppendU32(&v1, 0x49505348);  // "IPSH"
  wire::AppendU8(&v1, 1);            // version 1
  wire::AppendU8(&v1, 6);            // kIcws
  wire::AppendU64(&v1, 7);           // seed
  wire::AppendU64(&v1, 512);         // dimension  (no engine/L in v1)
  wire::AppendDouble(&v1, 2.5);      // norm
  wire::AppendU64(&v1, 1);
  wire::AppendU64(&v1, 42);          // fingerprints
  wire::AppendU64(&v1, 1);
  wire::AppendDouble(&v1, 0.75);     // values

  const auto parsed = DeserializeIcws(v1);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().engine, IcwsEngine::kExact);
  EXPECT_EQ(parsed.value().L, 0u);
}

TEST(GoldenBytesTest, UnknownVersionsAndEnginesAreRejected) {
  std::string v3 = FromHex(kGoldenWmh);
  v3[4] = 3;  // version byte
  EXPECT_FALSE(DeserializeWmh(v3).ok());

  std::string bad_engine = FromHex(kGoldenWmh);
  bad_engine[4 + 1 + 1 + 24] = 9;  // engine byte after seed/L/dimension
  EXPECT_FALSE(DeserializeWmh(bad_engine).ok());
}

TEST(GoldenBytesTest, QuantizedPayloadsRejectVersionOne) {
  // The quantized tags are new in wire version 2: no v1 producer ever
  // existed, so a v1 header on them is corruption, never legacy data.
  for (const char* golden : {kGoldenCompactWmh, kGoldenBbitWmh}) {
    std::string v1 = FromHex(golden);
    v1[4] = 1;  // version byte
    const bool compact = golden == kGoldenCompactWmh;
    EXPECT_FALSE(compact ? DeserializeCompactWmh(v1).ok()
                         : DeserializeBbitWmh(v1).ok());
  }
  // The engine byte is validated exactly as for full-precision WMH.
  std::string bad_engine = FromHex(kGoldenCompactWmh);
  bad_engine[4 + 1 + 1 + 24] = 9;
  EXPECT_FALSE(DeserializeCompactWmh(bad_engine).ok());
}

}  // namespace
}  // namespace ipsketch
