// The decode contract every untrusted-input codec in this repo must honor,
// in one checkable form shared by the libFuzzer harnesses (fuzz_*.cc) and
// the deterministic regression replayer (tests/wire_fuzz_regressions.cc):
//
//   1. Decoding arbitrary bytes either fails with a clean Status or
//      succeeds — never a crash, sanitizer finding, or unbounded
//      allocation (wire::BoundedReader caps allocations at the input size,
//      and the harness caps the input size itself — the byte-budget guard).
//   2. If decoding succeeds, re-encoding the decoded value produces bytes
//      the decoder accepts again, and that re-encoding is a fixed point:
//      encode(decode(encode(s))) == encode(s). The fixed point is checked
//      on the re-encoded bytes, not the raw input, which may differ from
//      them (e.g. a store file's entries re-encode in (shard, id) order).
//
// Violations abort after printing the offending codec — libFuzzer turns the
// abort into a crash artifact, ctest into a test failure.

#ifndef IPSKETCH_FUZZ_DECODE_CONTRACT_H_
#define IPSKETCH_FUZZ_DECODE_CONTRACT_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common/status.h"
#include "service/persistence.h"
#include "sketch/family.h"
#include "sketch/serialize.h"

namespace ipsketch {
namespace fuzz {

/// Byte-budget guard: decoded allocations are bounded by the input size
/// (wire::BoundedReader), so bounding the input bounds harness memory. 1 MiB
/// is orders of magnitude above any real sketch payload and far below the
/// fuzzer's RSS limit.
inline constexpr size_t kMaxInputBytes = size_t{1} << 20;

[[noreturn]] inline void ContractViolation(const char* codec,
                                           const char* what,
                                           const Status& status) {
  std::fprintf(stderr, "decode-contract violation [%s]: %s: %s\n", codec,
               what, status.ToString().c_str());
  std::abort();
}

/// Checks the contract for one codec: `decode` maps bytes to Result<T>,
/// `encode` maps a decoded T back to bytes.
template <typename Decode, typename Encode>
void CheckCodec(const char* codec, std::string_view data, Decode&& decode,
                Encode&& encode) {
  if (data.size() > kMaxInputBytes) return;
  auto first = decode(data);
  if (!first.ok()) return;  // clean rejection is the common, correct case
  const std::string wire = encode(first.value());
  auto second = decode(std::string_view(wire));
  if (!second.ok()) {
    ContractViolation(codec, "re-encoded bytes rejected", second.status());
  }
  const std::string wire2 = encode(second.value());
  if (wire2 != wire) {
    ContractViolation(codec, "re-encoding is not a fixed point",
                      Status::Internal("encode(decode(encode(s))) differs"));
  }
}

// --- per-wire-tag entry points (one per fuzz target) -------------------------

inline void CheckWmh(std::string_view data) {
  CheckCodec(
      "wmh", data, [](std::string_view b) { return DeserializeWmh(b); },
      [](const WmhSketch& s) { return SerializeWmh(s); });
}

inline void CheckMh(std::string_view data) {
  CheckCodec(
      "mh", data, [](std::string_view b) { return DeserializeMh(b); },
      [](const MhSketch& s) { return SerializeMh(s); });
}

inline void CheckKmv(std::string_view data) {
  CheckCodec(
      "kmv", data, [](std::string_view b) { return DeserializeKmv(b); },
      [](const KmvSketch& s) { return SerializeKmv(s); });
}

inline void CheckJl(std::string_view data) {
  CheckCodec(
      "jl", data, [](std::string_view b) { return DeserializeJl(b); },
      [](const JlSketch& s) { return SerializeJl(s); });
}

inline void CheckCs(std::string_view data) {
  CheckCodec(
      "cs", data,
      [](std::string_view b) { return DeserializeCountSketch(b); },
      [](const CountSketch& s) { return SerializeCountSketch(s); });
}

inline void CheckIcws(std::string_view data) {
  CheckCodec(
      "icws", data, [](std::string_view b) { return DeserializeIcws(b); },
      [](const IcwsSketch& s) { return SerializeIcws(s); });
}

inline void CheckCompactWmh(std::string_view data) {
  CheckCodec(
      "wmh_compact", data,
      [](std::string_view b) { return DeserializeCompactWmh(b); },
      [](const CompactWmhSketch& s) { return SerializeCompactWmh(s); });
}

inline void CheckBbitWmh(std::string_view data) {
  CheckCodec(
      "wmh_bbit", data,
      [](std::string_view b) { return DeserializeBbitWmh(b); },
      [](const BbitWmhSketch& s) { return SerializeBbitWmh(s); });
}

// --- store files -------------------------------------------------------------

/// FNV-1a 64, mirroring the persistence trailer (a documented part of the
/// store format), so the harness can re-seal mutated payloads.
inline uint64_t StoreChecksum(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Store-file loader contract. Raw bytes exercise the checksum trailer; a
/// second pass treats the input as the *payload* and appends the correct
/// trailer, so the fuzzer explores header/options/entry parsing instead of
/// stalling on the 2⁻⁶⁴ chance of guessing a valid checksum.
inline void CheckStore(std::string_view data) {
  if (data.size() > kMaxInputBytes) return;
  const auto decode = [](std::string_view b) { return DecodeSketchStore(b); };
  const auto encode = [](const SketchStore& s) {
    return EncodeSketchStore(s);
  };
  CheckCodec("store", data, decode, encode);
  std::string sealed(data);
  wire::AppendU64(&sealed, StoreChecksum(data));
  CheckCodec("store(resealed)", std::string_view(sealed), decode, encode);
}

// --- FamilyOptions -----------------------------------------------------------

/// The two FamilyOptions parsing surfaces: the wire block inside store
/// headers, and the string-keyed params MakeFamily validates and resolves.
inline void CheckFamilyOptions(std::string_view data) {
  if (data.size() > kMaxInputBytes) return;

  // Wire block: decode → re-encode → decode must be a fixed point.
  {
    const auto decode =
        [](std::string_view b) -> Result<FamilyOptions> {
      wire::BoundedReader r(b);
      FamilyOptions options;
      IPS_RETURN_IF_ERROR(ReadFamilyOptions(&r, &options));
      return options;
    };
    const auto encode = [](const FamilyOptions& options) {
      std::string out;
      AppendFamilyOptions(&out, options);
      return out;
    };
    CheckCodec("family-options(wire)", data, decode, encode);
  }

  // String parsing: first line is the family name, each following line one
  // "key=value" param. If MakeFamily accepts, resolution must be complete
  // (FamilyOptionsToString works) and idempotent: re-resolving the resolved
  // options yields the identical identity.
  {
    FamilyOptions options;
    options.dimension = 512;
    options.num_samples = 16;
    options.seed = 7;
    std::string name;
    size_t line_start = 0;
    bool first_line = true;
    while (line_start <= data.size()) {
      size_t eol = data.find('\n', line_start);
      if (eol == std::string_view::npos) eol = data.size();
      std::string_view line = data.substr(line_start, eol - line_start);
      if (first_line) {
        name = std::string(line);
        first_line = false;
      } else if (!line.empty()) {
        const size_t eq = line.find('=');
        const std::string_view key = line.substr(0, eq == line.npos ? line.size() : eq);
        const std::string_view value =
            eq == line.npos ? std::string_view() : line.substr(eq + 1);
        options.params[std::string(key)] = std::string(value);
      }
      line_start = eol + 1;
    }
    auto family = MakeFamily(name, options);
    if (!family.ok()) return;  // clean rejection
    const FamilyOptions& resolved = family.value()->options();
    (void)FamilyOptionsToString(resolved);
    auto again = MakeFamily(name, resolved);
    if (!again.ok()) {
      ContractViolation("family-options(string)",
                        "resolved options rejected on re-resolution",
                        again.status());
    }
    if (!(again.value()->options() == resolved)) {
      ContractViolation("family-options(string)",
                        "option resolution is not idempotent",
                        Status::Internal("resolved identities differ"));
    }
  }
}

/// Every decoder over one input — the regression replayer runs checked-in
/// crash files through all of them, so a corpus file found by any one
/// target keeps guarding the whole surface.
inline void CheckAllDecoders(std::string_view data) {
  CheckWmh(data);
  CheckMh(data);
  CheckKmv(data);
  CheckJl(data);
  CheckCs(data);
  CheckIcws(data);
  CheckCompactWmh(data);
  CheckBbitWmh(data);
  CheckStore(data);
  CheckFamilyOptions(data);
}

}  // namespace fuzz
}  // namespace ipsketch

#endif  // IPSKETCH_FUZZ_DECODE_CONTRACT_H_
