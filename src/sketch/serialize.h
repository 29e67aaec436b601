// Binary (de)serialization for every sketch type.
//
// The point of inner product sketching is that sketches are *stored* (in a
// dataset-search catalog) or *shipped* (between machines) and compared much
// later, so a stable wire format is part of the public API. The format is:
//
//   [magic u32][version u8][type u8][payload ...]
//
// with all integers little-endian and doubles as IEEE-754 bit patterns.
// Deserialization validates the magic, version, type tag, and payload
// length, returning InvalidArgument on any mismatch — corrupted bytes never
// produce a silently wrong sketch.
//
// Note that the wire sizes here are engineering-faithful but not identical
// to the paper's §5 *accounting* model (which charges 32 bits per stored
// hash); quantize.h provides the compact encodings.

#ifndef IPSKETCH_SKETCH_SERIALIZE_H_
#define IPSKETCH_SKETCH_SERIALIZE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/icws.h"
#include "core/wmh_sketch.h"
#include "sketch/count_sketch.h"
#include "sketch/jl_sketch.h"
#include "sketch/kmv.h"
#include "sketch/minhash.h"
#include "sketch/quantize.h"

namespace ipsketch {
namespace wire {

/// Little-endian wire primitives shared by the sketch serializers below and
/// by higher-level container formats (service/persistence.cc frames whole
/// stores with them). Integers are little-endian; doubles are IEEE-754 bit
/// patterns; byte strings are u64-length-prefixed.
void AppendU8(std::string* out, uint8_t v);
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
void AppendDouble(std::string* out, double v);
void AppendBytes(std::string* out, std::string_view bytes);

/// Bounds-checked sequential decoder over a byte view. Every read returns
/// InvalidArgument instead of walking off the end, so corrupted or truncated
/// input is always a recoverable error.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  Status ReadU8(uint8_t* v);
  Status ReadU32(uint32_t* v);
  Status ReadU64(uint64_t* v);
  Status ReadDouble(double* v);
  /// Reads a u64-length-prefixed byte string as a view into the input.
  Status ReadBytes(std::string_view* bytes);

  /// InvalidArgument unless the input is fully consumed.
  Status ExpectEnd() const;
  /// Bytes not yet consumed.
  size_t Remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

/// The one place decode-time length fields turn into allocations. Every
/// count is validated against the bytes actually present *before* anything
/// is resized — `count · elem_size ≤ Remaining()`, checked in division form
/// so the product can never wrap a u64 — which caps every allocation at the
/// input size itself: a decoder fed N bytes can never be tricked into
/// allocating more than O(N), no matter what its length fields claim.
///
/// All untrusted-input decoders (sketch payloads, FamilyOptions blocks,
/// store files) route through this class; ad-hoc `Remaining() / k`
/// arithmetic in individual decoders is a bug.
class BoundedReader : public Reader {
 public:
  explicit BoundedReader(std::string_view bytes) : Reader(bytes) {}

  /// Reads a u64 element count and rejects it unless `*n · elem_size` bytes
  /// remain. `elem_size` is the wire size of one element (> 0).
  Status ReadCount(size_t elem_size, uint64_t* n);

  /// Validates a 2-D shape read from the wire: `rows · cols` elements of
  /// `elem_size` bytes each must fit in the remaining input, with no
  /// intermediate product ever overflowing (division form throughout).
  Status CheckShape(uint64_t rows, uint64_t cols, size_t elem_size);

  /// Length-prefixed vector reads: u64 count (validated via ReadCount), then
  /// the elements. Doubles/floats travel as IEEE-754 bit patterns.
  Status ReadDoubles(std::vector<double>* xs);
  Status ReadU64s(std::vector<uint64_t>* xs);
  Status ReadU32s(std::vector<uint32_t>* xs);
  Status ReadF32s(std::vector<float>* xs);
};

}  // namespace wire

/// Serializes a Weighted MinHash sketch.
std::string SerializeWmh(const WmhSketch& sketch);
/// Parses a Weighted MinHash sketch; InvalidArgument on malformed input.
/// Version-1 payloads predate the engine field and decode with
/// `engine = kActiveIndex`; `*v1_payload` (when non-null) reports that the
/// payload was engine-less, so a caller that knows the true v1-era engine
/// (e.g. a store file's header) can adopt it instead — see
/// WmhSpec::Deserialize in sketch/family.cc.
Result<WmhSketch> DeserializeWmh(std::string_view bytes,
                                 bool* v1_payload = nullptr);

std::string SerializeMh(const MhSketch& sketch);
Result<MhSketch> DeserializeMh(std::string_view bytes);

std::string SerializeKmv(const KmvSketch& sketch);
Result<KmvSketch> DeserializeKmv(std::string_view bytes);

std::string SerializeJl(const JlSketch& sketch);
Result<JlSketch> DeserializeJl(std::string_view bytes);

std::string SerializeCountSketch(const CountSketch& sketch);
Result<CountSketch> DeserializeCountSketch(std::string_view bytes);

std::string SerializeIcws(const IcwsSketch& sketch);
Result<IcwsSketch> DeserializeIcws(std::string_view bytes);

/// Serializes a compact (32-bit hash, float32 value) WMH sketch. The wire
/// form carries the engine byte, exactly as full-precision WMH payloads do:
/// compact sketches are only comparable across equal engines. These tags
/// are new in wire version 2, so no version-1 payload exists for them and
/// none is accepted.
std::string SerializeCompactWmh(const CompactWmhSketch& sketch);
Result<CompactWmhSketch> DeserializeCompactWmh(std::string_view bytes);

/// Serializes a b-bit fingerprint WMH sketch (bits validated to [1, 32] on
/// decode; fingerprints must fit the declared width).
std::string SerializeBbitWmh(const BbitWmhSketch& sketch);
Result<BbitWmhSketch> DeserializeBbitWmh(std::string_view bytes);

/// The type byte of every serialized sketch; each decoder accepts only its
/// own tag. Tag 7 is retired: it is never reused, and no decoder accepts
/// it.
enum class SketchTypeTag : uint8_t {
  kWmh = 1,
  kMh = 2,
  kKmv = 3,
  kJl = 4,
  kCountSketch = 5,
  kIcws = 6,
  kCompactWmh = 8,
  kBbitWmh = 9,
};

}  // namespace ipsketch

#endif  // IPSKETCH_SKETCH_SERIALIZE_H_
