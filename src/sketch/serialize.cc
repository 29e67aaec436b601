#include "sketch/serialize.h"

#include <cstring>

namespace ipsketch {

// --- wire primitives --------------------------------------------------------

namespace wire {

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendDouble(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

void AppendBytes(std::string* out, std::string_view bytes) {
  AppendU64(out, bytes.size());
  out->append(bytes);
}

namespace {
Status Truncated() { return Status::InvalidArgument("truncated sketch bytes"); }
}  // namespace

Status Reader::ReadU8(uint8_t* v) {
  if (pos_ + 1 > bytes_.size()) return Truncated();
  *v = static_cast<uint8_t>(bytes_[pos_++]);
  return Status::Ok();
}

Status Reader::ReadU32(uint32_t* v) {
  if (pos_ + 4 > bytes_.size()) return Truncated();
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_++]))
          << (8 * i);
  }
  return Status::Ok();
}

Status Reader::ReadU64(uint64_t* v) {
  if (pos_ + 8 > bytes_.size()) return Truncated();
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_++]))
          << (8 * i);
  }
  return Status::Ok();
}

Status Reader::ReadDouble(double* v) {
  uint64_t bits = 0;
  IPS_RETURN_IF_ERROR(ReadU64(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::Ok();
}

Status Reader::ReadBytes(std::string_view* bytes) {
  uint64_t n = 0;
  IPS_RETURN_IF_ERROR(ReadU64(&n));
  if (n > Remaining()) return Truncated();
  *bytes = bytes_.substr(pos_, n);
  pos_ += n;
  return Status::Ok();
}

Status Reader::ExpectEnd() const {
  if (pos_ != bytes_.size()) {
    return Status::InvalidArgument("trailing bytes after sketch payload");
  }
  return Status::Ok();
}

Status BoundedReader::ReadCount(size_t elem_size, uint64_t* n) {
  IPS_RETURN_IF_ERROR(ReadU64(n));
  // Division form: `*n * elem_size` could wrap a u64 for hostile counts.
  if (*n > Remaining() / elem_size) {
    return Status::InvalidArgument("element count exceeds remaining bytes");
  }
  return Status::Ok();
}

Status BoundedReader::CheckShape(uint64_t rows, uint64_t cols,
                                 size_t elem_size) {
  const uint64_t max_elems = Remaining() / elem_size;
  // rows · cols ≤ max_elems without ever forming the product: either factor
  // alone must fit, and so must the pair. Zero-element shapes are trivially
  // in bounds (decoders that allocate per *row* must bound rows separately).
  if (rows > max_elems || cols > max_elems ||
      (cols != 0 && rows > max_elems / cols)) {
    return Status::InvalidArgument("decoded shape exceeds remaining bytes");
  }
  return Status::Ok();
}

Status BoundedReader::ReadDoubles(std::vector<double>* xs) {
  uint64_t n = 0;
  IPS_RETURN_IF_ERROR(ReadCount(8, &n));
  xs->resize(n);
  for (auto& x : *xs) IPS_RETURN_IF_ERROR(ReadDouble(&x));
  return Status::Ok();
}

Status BoundedReader::ReadU64s(std::vector<uint64_t>* xs) {
  uint64_t n = 0;
  IPS_RETURN_IF_ERROR(ReadCount(8, &n));
  xs->resize(n);
  for (auto& x : *xs) IPS_RETURN_IF_ERROR(ReadU64(&x));
  return Status::Ok();
}

Status BoundedReader::ReadU32s(std::vector<uint32_t>* xs) {
  uint64_t n = 0;
  IPS_RETURN_IF_ERROR(ReadCount(4, &n));
  xs->resize(n);
  for (auto& x : *xs) IPS_RETURN_IF_ERROR(ReadU32(&x));
  return Status::Ok();
}

Status BoundedReader::ReadF32s(std::vector<float>* xs) {
  uint64_t n = 0;
  IPS_RETURN_IF_ERROR(ReadCount(4, &n));
  xs->resize(n);
  for (auto& x : *xs) {
    uint32_t bits = 0;
    IPS_RETURN_IF_ERROR(ReadU32(&bits));
    std::memcpy(&x, &bits, sizeof(x));
  }
  return Status::Ok();
}

}  // namespace wire

namespace {

constexpr uint32_t kMagic = 0x49505348;  // "IPSH"
// Version 2 added the engine byte to WMH payloads and the engine byte + L
// to ICWS payloads; every other payload is unchanged. Version-1 bytes still
// parse: they predate the dart engines, so their sketches were by
// definition built by the legacy engines (WMH kActiveIndex, ICWS kExact) —
// that is what the missing fields decode to.
constexpr uint8_t kVersion = 2;
constexpr uint8_t kVersionV1 = 1;

// --- encoding ---------------------------------------------------------------

using wire::AppendDouble;
using wire::AppendU32;
using wire::AppendU64;
using wire::AppendU8;

void PutU8(std::string* out, uint8_t v) { AppendU8(out, v); }
void PutU32(std::string* out, uint32_t v) { AppendU32(out, v); }
void PutU64(std::string* out, uint64_t v) { AppendU64(out, v); }
void PutDouble(std::string* out, double v) { AppendDouble(out, v); }

void PutDoubles(std::string* out, const std::vector<double>& xs) {
  PutU64(out, xs.size());
  for (double x : xs) PutDouble(out, x);
}

void PutU64s(std::string* out, const std::vector<uint64_t>& xs) {
  PutU64(out, xs.size());
  for (uint64_t x : xs) PutU64(out, x);
}

void PutU32s(std::string* out, const std::vector<uint32_t>& xs) {
  PutU64(out, xs.size());
  for (uint32_t x : xs) PutU32(out, x);
}

void PutF32s(std::string* out, const std::vector<float>& xs) {
  PutU64(out, xs.size());
  for (float x : xs) {
    uint32_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    PutU32(out, bits);
  }
}

void PutHeader(std::string* out, SketchTypeTag tag) {
  PutU32(out, kMagic);
  PutU8(out, kVersion);
  PutU8(out, static_cast<uint8_t>(tag));
}

// --- decoding ---------------------------------------------------------------

// Extends the shared bounded wire decoder with the header framing that is
// specific to sketch payloads (vector reads live on wire::BoundedReader,
// the one place length fields become allocations).
class Reader : public wire::BoundedReader {
 public:
  using wire::BoundedReader::BoundedReader;

  /// Header check for payloads that are identical across accepted format
  /// versions (everything except WMH and ICWS).
  Status ExpectHeader(SketchTypeTag tag) {
    uint8_t version = 0;
    return ExpectHeader(tag, &version);
  }

  /// Reads and validates the header; `*version` reports which accepted
  /// format version (1 or 2) the payload uses.
  Status ExpectHeader(SketchTypeTag tag, uint8_t* version) {
    uint32_t magic = 0;
    IPS_RETURN_IF_ERROR(ReadU32(&magic));
    if (magic != kMagic) return Status::InvalidArgument("bad sketch magic");
    IPS_RETURN_IF_ERROR(ReadU8(version));
    if (*version != kVersion && *version != kVersionV1) {
      return Status::InvalidArgument("unsupported sketch version " +
                                     std::to_string(*version));
    }
    uint8_t got = 0;
    IPS_RETURN_IF_ERROR(ReadU8(&got));
    if (got != static_cast<uint8_t>(tag)) {
      return Status::InvalidArgument("sketch type mismatch");
    }
    return Status::Ok();
  }
};

// Reads and validates the engine byte shared by the full-precision WMH
// payload and both quantized encodings — one bounds check, so a new engine
// enumerator cannot be accepted by one decoder and rejected by another.
Status ReadWmhEngine(Reader* r, WmhEngine* engine) {
  uint8_t byte = 0;
  IPS_RETURN_IF_ERROR(r->ReadU8(&byte));
  if (byte > static_cast<uint8_t>(WmhEngine::kDart)) {
    return Status::InvalidArgument("unknown WMH engine");
  }
  *engine = static_cast<WmhEngine>(byte);
  return Status::Ok();
}

}  // namespace

// --- WMH ---------------------------------------------------------------------

std::string SerializeWmh(const WmhSketch& sketch) {
  std::string out;
  PutHeader(&out, SketchTypeTag::kWmh);
  PutU64(&out, sketch.seed);
  PutU64(&out, sketch.L);
  PutU64(&out, sketch.dimension);
  PutU8(&out, static_cast<uint8_t>(sketch.engine));
  PutDouble(&out, sketch.norm);
  PutDoubles(&out, sketch.hashes);
  PutDoubles(&out, sketch.values);
  return out;
}

Result<WmhSketch> DeserializeWmh(std::string_view bytes, bool* v1_payload) {
  Reader r(bytes);
  uint8_t version = 0;
  IPS_RETURN_IF_ERROR(r.ExpectHeader(SketchTypeTag::kWmh, &version));
  if (v1_payload != nullptr) *v1_payload = version < 2;
  WmhSketch s;
  IPS_RETURN_IF_ERROR(r.ReadU64(&s.seed));
  IPS_RETURN_IF_ERROR(r.ReadU64(&s.L));
  IPS_RETURN_IF_ERROR(r.ReadU64(&s.dimension));
  if (version >= 2) {
    IPS_RETURN_IF_ERROR(ReadWmhEngine(&r, &s.engine));
  } else {
    s.engine = WmhEngine::kActiveIndex;  // the only v1 production engine
  }
  IPS_RETURN_IF_ERROR(r.ReadDouble(&s.norm));
  IPS_RETURN_IF_ERROR(r.ReadDoubles(&s.hashes));
  IPS_RETURN_IF_ERROR(r.ReadDoubles(&s.values));
  if (s.hashes.size() != s.values.size()) {
    return Status::InvalidArgument("WMH hash/value length mismatch");
  }
  IPS_RETURN_IF_ERROR(r.ExpectEnd());
  return s;
}

// --- MH ------------------------------------------------------------------------

std::string SerializeMh(const MhSketch& sketch) {
  std::string out;
  PutHeader(&out, SketchTypeTag::kMh);
  PutU64(&out, sketch.seed);
  PutU64(&out, sketch.dimension);
  PutU8(&out, static_cast<uint8_t>(sketch.hash_kind));
  PutDoubles(&out, sketch.hashes);
  PutDoubles(&out, sketch.values);
  return out;
}

Result<MhSketch> DeserializeMh(std::string_view bytes) {
  Reader r(bytes);
  IPS_RETURN_IF_ERROR(r.ExpectHeader(SketchTypeTag::kMh));
  MhSketch s;
  IPS_RETURN_IF_ERROR(r.ReadU64(&s.seed));
  IPS_RETURN_IF_ERROR(r.ReadU64(&s.dimension));
  uint8_t kind = 0;
  IPS_RETURN_IF_ERROR(r.ReadU8(&kind));
  if (kind > static_cast<uint8_t>(HashKind::kCarterWegman31)) {
    return Status::InvalidArgument("unknown hash kind");
  }
  s.hash_kind = static_cast<HashKind>(kind);
  IPS_RETURN_IF_ERROR(r.ReadDoubles(&s.hashes));
  IPS_RETURN_IF_ERROR(r.ReadDoubles(&s.values));
  if (s.hashes.size() != s.values.size()) {
    return Status::InvalidArgument("MH hash/value length mismatch");
  }
  IPS_RETURN_IF_ERROR(r.ExpectEnd());
  return s;
}

// --- KMV ---------------------------------------------------------------------

std::string SerializeKmv(const KmvSketch& sketch) {
  std::string out;
  PutHeader(&out, SketchTypeTag::kKmv);
  PutU64(&out, sketch.seed);
  PutU64(&out, sketch.dimension);
  PutU64(&out, sketch.k);
  PutU8(&out, static_cast<uint8_t>(sketch.hash_kind));
  PutU64(&out, sketch.samples.size());
  for (const auto& sample : sketch.samples) {
    PutDouble(&out, sample.hash);
    PutDouble(&out, sample.value);
  }
  return out;
}

Result<KmvSketch> DeserializeKmv(std::string_view bytes) {
  Reader r(bytes);
  IPS_RETURN_IF_ERROR(r.ExpectHeader(SketchTypeTag::kKmv));
  KmvSketch s;
  IPS_RETURN_IF_ERROR(r.ReadU64(&s.seed));
  IPS_RETURN_IF_ERROR(r.ReadU64(&s.dimension));
  uint64_t k = 0;
  IPS_RETURN_IF_ERROR(r.ReadU64(&k));
  s.k = static_cast<size_t>(k);
  uint8_t kind = 0;
  IPS_RETURN_IF_ERROR(r.ReadU8(&kind));
  if (kind > static_cast<uint8_t>(HashKind::kCarterWegman31)) {
    return Status::InvalidArgument("unknown hash kind");
  }
  s.hash_kind = static_cast<HashKind>(kind);
  uint64_t n = 0;
  IPS_RETURN_IF_ERROR(r.ReadCount(16, &n));
  if (n > s.k) {
    return Status::InvalidArgument("KMV sample count out of range");
  }
  s.samples.resize(n);
  double prev = -1.0;
  for (auto& sample : s.samples) {
    IPS_RETURN_IF_ERROR(r.ReadDouble(&sample.hash));
    IPS_RETURN_IF_ERROR(r.ReadDouble(&sample.value));
    // Negated comparison so a NaN hash (which compares false both ways, and
    // would otherwise slip through a `<=` check into the estimator's match
    // loop) is rejected along with out-of-order samples.
    if (!(sample.hash > prev)) {
      return Status::InvalidArgument("KMV samples not strictly sorted");
    }
    prev = sample.hash;
  }
  IPS_RETURN_IF_ERROR(r.ExpectEnd());
  return s;
}

// --- JL ----------------------------------------------------------------------

std::string SerializeJl(const JlSketch& sketch) {
  std::string out;
  PutHeader(&out, SketchTypeTag::kJl);
  PutU64(&out, sketch.seed);
  PutU64(&out, sketch.dimension);
  PutDoubles(&out, sketch.projection);
  return out;
}

Result<JlSketch> DeserializeJl(std::string_view bytes) {
  Reader r(bytes);
  IPS_RETURN_IF_ERROR(r.ExpectHeader(SketchTypeTag::kJl));
  JlSketch s;
  IPS_RETURN_IF_ERROR(r.ReadU64(&s.seed));
  IPS_RETURN_IF_ERROR(r.ReadU64(&s.dimension));
  IPS_RETURN_IF_ERROR(r.ReadDoubles(&s.projection));
  IPS_RETURN_IF_ERROR(r.ExpectEnd());
  return s;
}

// --- CountSketch ---------------------------------------------------------------

std::string SerializeCountSketch(const CountSketch& sketch) {
  std::string out;
  PutHeader(&out, SketchTypeTag::kCountSketch);
  PutU64(&out, sketch.seed);
  PutU64(&out, sketch.dimension);
  PutU64(&out, sketch.tables.size());
  PutU64(&out, sketch.width());
  for (const auto& table : sketch.tables) {
    for (double c : table) PutDouble(&out, c);
  }
  return out;
}

Result<CountSketch> DeserializeCountSketch(std::string_view bytes) {
  Reader r(bytes);
  IPS_RETURN_IF_ERROR(r.ExpectHeader(SketchTypeTag::kCountSketch));
  CountSketch s;
  IPS_RETURN_IF_ERROR(r.ReadU64(&s.seed));
  IPS_RETURN_IF_ERROR(r.ReadU64(&s.dimension));
  uint64_t reps = 0, width = 0;
  IPS_RETURN_IF_ERROR(r.ReadU64(&reps));
  IPS_RETURN_IF_ERROR(r.ReadU64(&width));
  // CheckShape bounds reps · width without forming the product (the old
  // `reps * width` pre-check wrapped at 2⁶⁴ — e.g. reps = width = 2³² passed
  // as 0 and then tried to allocate 2³² tables). A zero width with nonzero
  // reps is rejected separately: each empty row consumes no payload bytes,
  // so `reps` rows would otherwise allocate unboundedly many vectors.
  IPS_RETURN_IF_ERROR(r.CheckShape(reps, width, 8));
  if (reps != 0 && width == 0) {
    return Status::InvalidArgument("CountSketch shape out of range");
  }
  s.tables.assign(reps, std::vector<double>(width));
  for (auto& table : s.tables) {
    for (auto& c : table) IPS_RETURN_IF_ERROR(r.ReadDouble(&c));
  }
  IPS_RETURN_IF_ERROR(r.ExpectEnd());
  return s;
}

// --- ICWS ----------------------------------------------------------------------

std::string SerializeIcws(const IcwsSketch& sketch) {
  std::string out;
  PutHeader(&out, SketchTypeTag::kIcws);
  PutU64(&out, sketch.seed);
  PutU64(&out, sketch.dimension);
  PutU8(&out, static_cast<uint8_t>(sketch.engine));
  PutU64(&out, sketch.L);
  PutDouble(&out, sketch.norm);
  PutU64s(&out, sketch.fingerprints);
  PutDoubles(&out, sketch.values);
  return out;
}

Result<IcwsSketch> DeserializeIcws(std::string_view bytes) {
  Reader r(bytes);
  uint8_t version = 0;
  IPS_RETURN_IF_ERROR(r.ExpectHeader(SketchTypeTag::kIcws, &version));
  IcwsSketch s;
  IPS_RETURN_IF_ERROR(r.ReadU64(&s.seed));
  IPS_RETURN_IF_ERROR(r.ReadU64(&s.dimension));
  if (version >= 2) {
    uint8_t engine = 0;
    IPS_RETURN_IF_ERROR(r.ReadU8(&engine));
    if (engine > static_cast<uint8_t>(IcwsEngine::kDart)) {
      return Status::InvalidArgument("unknown ICWS engine");
    }
    s.engine = static_cast<IcwsEngine>(engine);
    IPS_RETURN_IF_ERROR(r.ReadU64(&s.L));
  } else {
    s.engine = IcwsEngine::kExact;  // v1 predates the dart variant
    s.L = 0;
  }
  IPS_RETURN_IF_ERROR(r.ReadDouble(&s.norm));
  IPS_RETURN_IF_ERROR(r.ReadU64s(&s.fingerprints));
  IPS_RETURN_IF_ERROR(r.ReadDoubles(&s.values));
  if (s.fingerprints.size() != s.values.size()) {
    return Status::InvalidArgument("ICWS fingerprint/value length mismatch");
  }
  IPS_RETURN_IF_ERROR(r.ExpectEnd());
  return s;
}

// --- compact / b-bit WMH -------------------------------------------------------

namespace {

// The quantized payloads are new in wire version 2: no version-1 producer
// ever existed for these tags, so unlike WMH/ICWS there is no legacy
// decode path — a version-1 header on them is corruption, not history.
Status ExpectQuantizedHeader(Reader* r, SketchTypeTag tag) {
  uint8_t version = 0;
  IPS_RETURN_IF_ERROR(r->ExpectHeader(tag, &version));
  if (version < 2) {
    return Status::InvalidArgument(
        "quantized WMH payloads require wire version 2");
  }
  return Status::Ok();
}

}  // namespace

std::string SerializeCompactWmh(const CompactWmhSketch& sketch) {
  std::string out;
  PutHeader(&out, SketchTypeTag::kCompactWmh);
  PutU64(&out, sketch.seed);
  PutU64(&out, sketch.L);
  PutU64(&out, sketch.dimension);
  PutU8(&out, static_cast<uint8_t>(sketch.engine));
  PutDouble(&out, sketch.norm);
  PutU32s(&out, sketch.hashes);
  PutF32s(&out, sketch.values);
  return out;
}

Result<CompactWmhSketch> DeserializeCompactWmh(std::string_view bytes) {
  Reader r(bytes);
  IPS_RETURN_IF_ERROR(
      ExpectQuantizedHeader(&r, SketchTypeTag::kCompactWmh));
  CompactWmhSketch s;
  IPS_RETURN_IF_ERROR(r.ReadU64(&s.seed));
  IPS_RETURN_IF_ERROR(r.ReadU64(&s.L));
  IPS_RETURN_IF_ERROR(r.ReadU64(&s.dimension));
  IPS_RETURN_IF_ERROR(ReadWmhEngine(&r, &s.engine));
  IPS_RETURN_IF_ERROR(r.ReadDouble(&s.norm));
  IPS_RETURN_IF_ERROR(r.ReadU32s(&s.hashes));
  IPS_RETURN_IF_ERROR(r.ReadF32s(&s.values));
  if (s.hashes.size() != s.values.size()) {
    return Status::InvalidArgument(
        "compact WMH hash/value length mismatch");
  }
  IPS_RETURN_IF_ERROR(r.ExpectEnd());
  return s;
}

std::string SerializeBbitWmh(const BbitWmhSketch& sketch) {
  std::string out;
  PutHeader(&out, SketchTypeTag::kBbitWmh);
  PutU64(&out, sketch.seed);
  PutU64(&out, sketch.L);
  PutU64(&out, sketch.dimension);
  PutU8(&out, static_cast<uint8_t>(sketch.engine));
  PutU32(&out, sketch.bits);
  PutDouble(&out, sketch.norm);
  PutU32s(&out, sketch.fingerprints);
  PutF32s(&out, sketch.values);
  return out;
}

Result<BbitWmhSketch> DeserializeBbitWmh(std::string_view bytes) {
  Reader r(bytes);
  IPS_RETURN_IF_ERROR(ExpectQuantizedHeader(&r, SketchTypeTag::kBbitWmh));
  BbitWmhSketch s;
  IPS_RETURN_IF_ERROR(r.ReadU64(&s.seed));
  IPS_RETURN_IF_ERROR(r.ReadU64(&s.L));
  IPS_RETURN_IF_ERROR(r.ReadU64(&s.dimension));
  IPS_RETURN_IF_ERROR(ReadWmhEngine(&r, &s.engine));
  IPS_RETURN_IF_ERROR(r.ReadU32(&s.bits));
  if (s.bits < 1 || s.bits > 32) {
    return Status::InvalidArgument(
        "b-bit WMH fingerprint width out of range");
  }
  IPS_RETURN_IF_ERROR(r.ReadDouble(&s.norm));
  IPS_RETURN_IF_ERROR(r.ReadU32s(&s.fingerprints));
  IPS_RETURN_IF_ERROR(r.ReadF32s(&s.values));
  if (s.fingerprints.size() != s.values.size()) {
    return Status::InvalidArgument(
        "b-bit WMH fingerprint/value length mismatch");
  }
  IPS_RETURN_IF_ERROR(CheckBbitFingerprintWidths(s));
  IPS_RETURN_IF_ERROR(r.ExpectEnd());
  return s;
}

}  // namespace ipsketch
