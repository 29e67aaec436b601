#include "sketch/family.h"

#include <bit>
#include <type_traits>
#include <utility>

#include "core/icws.h"
#include "core/rounding.h"
#include "core/wmh_estimator.h"
#include "core/wmh_sketch.h"
#include "sketch/count_sketch.h"
#include "sketch/jl_sketch.h"
#include "sketch/kmv.h"
#include "sketch/merge.h"
#include "sketch/minhash.h"
#include "sketch/quantize.h"
#include "sketch/serialize.h"

namespace ipsketch {

// --- FamilyOptions wire form and rendering ----------------------------------

void AppendFamilyOptions(std::string* out, const FamilyOptions& options) {
  wire::AppendU64(out, options.dimension);
  wire::AppendU64(out, options.num_samples);
  wire::AppendU64(out, options.seed);
  wire::AppendU64(out, options.params.size());
  for (const auto& [key, value] : options.params) {
    wire::AppendBytes(out, key);
    wire::AppendBytes(out, value);
  }
}

Status ReadFamilyOptions(wire::BoundedReader* r, FamilyOptions* options) {
  uint64_t num_samples = 0;
  IPS_RETURN_IF_ERROR(r->ReadU64(&options->dimension));
  IPS_RETURN_IF_ERROR(r->ReadU64(&num_samples));
  IPS_RETURN_IF_ERROR(r->ReadU64(&options->seed));
  options->num_samples = static_cast<size_t>(num_samples);
  // Two length prefixes per param is ≥ 16 bytes; bound before the loop.
  uint64_t num_params = 0;
  IPS_RETURN_IF_ERROR(r->ReadCount(16, &num_params));
  options->params.clear();
  std::string_view prev_key;
  for (uint64_t i = 0; i < num_params; ++i) {
    std::string_view key, value;
    IPS_RETURN_IF_ERROR(r->ReadBytes(&key));
    IPS_RETURN_IF_ERROR(r->ReadBytes(&value));
    // The writer walks a sorted map, so keys arrive strictly increasing;
    // anything else (duplicates included) is corruption, not data.
    if (i > 0 && !(prev_key < key)) {
      return Status::InvalidArgument(
          "family option params not in canonical (strictly sorted) order");
    }
    prev_key = key;
    options->params.emplace(std::string(key), std::string(value));
  }
  return Status::Ok();
}

std::string FamilyOptionsToString(const FamilyOptions& options) {
  std::string out = "dimension=" + std::to_string(options.dimension) +
                    " num_samples=" + std::to_string(options.num_samples) +
                    " seed=" + std::to_string(options.seed);
  for (const auto& [key, value] : options.params) {
    out += " " + key + "=" + value;
  }
  return out;
}

// --- default capability stubs ----------------------------------------------

Result<std::unique_ptr<AnySketch>> SketchFamily::Merge(
    const AnySketch& /*a*/, const AnySketch& /*b*/) const {
  return Status::FailedPrecondition(name() +
                                    " sketches do not support merging");
}

Result<std::unique_ptr<AnySketch>> SketchFamily::Truncate(
    const AnySketch& /*sketch*/, size_t /*m*/) const {
  return Status::FailedPrecondition(name() +
                                    " sketches do not support truncation");
}

Result<double> SketchFamily::ResidentWords(const AnySketch& sketch) const {
  // For most families the resident layout matches the §5 accounting;
  // families that store 64-bit doubles where the accounting charges 32 bits
  // override.
  return StorageWords(sketch);
}

Status SketchFamily::AppendLshCodes(const AnySketch& /*sketch*/,
                                    std::vector<uint64_t>* /*out*/) const {
  return Status::FailedPrecondition(
      "family '" + name() +
      "' does not expose positional LSH codes (supports_banding is false)");
}

namespace {

// --- param parsing helpers --------------------------------------------------

/// Rejects any param key outside `allowed` (keys are few; linear scan).
Status CheckKnownParams(const std::string& family, const FamilyOptions& options,
                        const std::vector<std::string>& allowed) {
  for (const auto& [key, value] : options.params) {
    bool known = false;
    for (const auto& a : allowed) known = known || a == key;
    if (!known) {
      return Status::InvalidArgument("unknown option '" + key +
                                     "' for family '" + family + "'");
    }
  }
  return Status::Ok();
}

/// Parses params[key] as a u64 if present, else leaves *out unchanged.
Status ParseU64Param(const FamilyOptions& options, const std::string& key,
                     uint64_t* out) {
  auto it = options.params.find(key);
  if (it == options.params.end()) return Status::Ok();
  const std::string& text = it->second;
  if (text.empty()) {
    return Status::InvalidArgument("option '" + key + "' must be an integer");
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9' || value > (~uint64_t{0} - 9) / 10) {
      return Status::InvalidArgument("option '" + key +
                                     "' is not a valid integer: " + text);
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return Status::Ok();
}

Status ParseHashKindParam(const FamilyOptions& options, HashKind* out) {
  auto it = options.params.find("hash");
  if (it == options.params.end()) return Status::Ok();
  if (it->second == "mixed64") {
    *out = HashKind::kMixed64;
  } else if (it->second == "cw61") {
    *out = HashKind::kCarterWegman61;
  } else if (it->second == "cw31") {
    *out = HashKind::kCarterWegman31;
  } else {
    return Status::InvalidArgument(
        "option 'hash' must be mixed64, cw61, or cw31; got " + it->second);
  }
  return Status::Ok();
}

const char* HashKindName(HashKind kind) {
  switch (kind) {
    case HashKind::kMixed64: return "mixed64";
    case HashKind::kCarterWegman61: return "cw61";
    case HashKind::kCarterWegman31: return "cw31";
  }
  return "mixed64";
}

Status CommonValidate(const FamilyOptions& options) {
  if (options.dimension == 0) {
    return Status::InvalidArgument(
        "family options require a positive dimension");
  }
  return Status::Ok();
}

/// Downcasts or explains which family the operation belongs to.
template <typename T>
Result<const T*> Cast(const std::string& family, const AnySketch& sketch) {
  const T* typed = GetSketchAs<T>(sketch);
  if (typed == nullptr) {
    return Status::InvalidArgument("sketch is not of family '" + family + "'");
  }
  return typed;
}

template <typename T>
std::unique_ptr<AnySketch> Wrap(T sketch) {
  return std::make_unique<TypedSketch<T>>(std::move(sketch));
}

// --- LSH codes for the banding families --------------------------------------

/// Appends one 64-bit collision code per sample of a hash (or fingerprint)
/// lane. Equal doubles have equal bit patterns (minimum hashes are never
/// -0.0 or NaN), so a double hash's raw pattern is a collision-exact code;
/// integer hashes and fingerprints are codes already. For b-bit
/// fingerprints, equality is exactly the estimator's match event (spurious
/// rate 2⁻ᵇ — banding just sees more candidates).
template <typename T>
void AppendLaneCodes(const std::vector<T>& lane, std::vector<uint64_t>* out) {
  out->reserve(out->size() + lane.size());
  for (const T h : lane) {
    if constexpr (std::is_same_v<T, double>) {
      out->push_back(std::bit_cast<uint64_t>(h));
    } else {
      out->push_back(static_cast<uint64_t>(h));
    }
  }
}

// --- generic sketcher for the stateless families ----------------------------

/// Sketcher over a plain SketchX(vector, options) function: no scratch state
/// beyond the output sketch itself (whose buffers are reused via move
/// assignment).
template <typename SketchT, typename OptionsT,
          Result<SketchT> (*SketchFn)(const SparseVector&, const OptionsT&)>
class FnSketcher final : public Sketcher {
 public:
  FnSketcher(std::string family, OptionsT options, uint64_t dimension)
      : family_(std::move(family)),
        options_(std::move(options)),
        dimension_(dimension) {}

  Status Sketch(const SparseVector& a, AnySketch* out) override {
    if (a.dimension() != dimension_) {
      return Status::InvalidArgument(
          "vector dimension does not match the family's");
    }
    SketchT* typed = GetMutableSketchAs<SketchT>(out);
    if (typed == nullptr) {
      return Status::InvalidArgument("output sketch is not of family '" +
                                     family_ + "'");
    }
    auto sketched = SketchFn(a, options_);
    IPS_RETURN_IF_ERROR(sketched.status());
    *typed = std::move(sketched).value();
    return Status::Ok();
  }

 private:
  std::string family_;
  OptionsT options_;
  uint64_t dimension_;
};

// --- WMH ---------------------------------------------------------------------

/// Wraps the scratch-reusing WmhSketcher context.
class WmhFamilySketcher final : public Sketcher {
 public:
  WmhFamilySketcher(WmhSketcher sketcher, uint64_t dimension)
      : sketcher_(std::move(sketcher)), dimension_(dimension) {}

  Status Sketch(const SparseVector& a, AnySketch* out) override {
    if (a.dimension() != dimension_) {
      return Status::InvalidArgument(
          "vector dimension does not match the family's");
    }
    WmhSketch* typed = GetMutableSketchAs<WmhSketch>(out);
    if (typed == nullptr) {
      return Status::InvalidArgument("output sketch is not of family 'wmh'");
    }
    return sketcher_.Sketch(a, typed);
  }

 private:
  WmhSketcher sketcher_;
  uint64_t dimension_;
};

class WmhFamily final : public SketchFamily {
 public:
  WmhFamily(FamilyInfo info, FamilyOptions resolved, WmhOptions concrete)
      : SketchFamily(std::move(info), std::move(resolved)),
        concrete_(concrete) {}

  std::unique_ptr<AnySketch> NewSketch() const override {
    return std::make_unique<TypedSketch<WmhSketch>>();
  }

  Result<std::unique_ptr<Sketcher>> MakeSketcher() const override {
    auto made = WmhSketcher::Make(concrete_);
    IPS_RETURN_IF_ERROR(made.status());
    return std::unique_ptr<Sketcher>(new WmhFamilySketcher(
        std::move(made).value(), options().dimension));
  }

  Status CheckCompatible(const AnySketch& sketch) const override {
    auto typed = Cast<WmhSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    const WmhSketch& s = *typed.value();
    if (s.num_samples() != concrete_.num_samples ||
        s.seed != concrete_.seed || s.L != concrete_.L ||
        s.engine != concrete_.engine ||
        s.dimension != options().dimension) {
      return Status::InvalidArgument(
          "wmh sketch parameters do not match the family's "
          "(m, seed, L, engine, dimension)");
    }
    if (s.hashes.size() != s.values.size()) {
      return Status::InvalidArgument("wmh sketch hash/value length mismatch");
    }
    return Status::Ok();
  }

  Result<double> Estimate(const AnySketch& a,
                          const AnySketch& b) const override {
    auto ta = Cast<WmhSketch>(name(), a);
    IPS_RETURN_IF_ERROR(ta.status());
    auto tb = Cast<WmhSketch>(name(), b);
    IPS_RETURN_IF_ERROR(tb.status());
    return EstimateWmhInnerProduct(*ta.value(), *tb.value());
  }

  Result<std::unique_ptr<AnySketch>> Truncate(const AnySketch& sketch,
                                              size_t m) const override {
    auto typed = Cast<WmhSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    if (m > typed.value()->num_samples()) {
      return Status::OutOfRange("truncation beyond the sketch's samples");
    }
    return Wrap(TruncatedWmh(*typed.value(), m));
  }

  Result<double> StorageWords(const AnySketch& sketch) const override {
    auto typed = Cast<WmhSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    return typed.value()->StorageWords();
  }

  Result<double> ResidentWords(const AnySketch& sketch) const override {
    auto typed = Cast<WmhSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    // Two resident doubles per sample (hash + value) + the norm; the §5
    // accounting charges only 1.5 words because it assumes a 32-bit hash.
    return 2.0 * static_cast<double>(typed.value()->num_samples()) + 1.0;
  }

  Status AppendLshCodes(const AnySketch& sketch,
                        std::vector<uint64_t>* out) const override {
    IPS_RETURN_IF_ERROR(CheckCompatible(sketch));
    AppendLaneCodes(GetSketchAs<WmhSketch>(sketch)->hashes, out);
    return Status::Ok();
  }

  Result<std::string> Serialize(const AnySketch& sketch) const override {
    auto typed = Cast<WmhSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    return SerializeWmh(*typed.value());
  }

  Result<std::unique_ptr<AnySketch>> Deserialize(
      std::string_view bytes) const override {
    bool v1_payload = false;
    auto parsed = DeserializeWmh(bytes, &v1_payload);
    IPS_RETURN_IF_ERROR(parsed.status());
    WmhSketch sketch = std::move(parsed).value();
    // Engine-less v1 payloads were built by whichever v1-era engine this
    // family resolves to (the store header is authoritative) — adopt it so
    // legacy expanded_reference catalogs keep loading. A dart family never
    // adopts: no v1 producer existed for it.
    if (v1_payload && (concrete_.engine == WmhEngine::kActiveIndex ||
                       concrete_.engine == WmhEngine::kExpandedReference)) {
      sketch.engine = concrete_.engine;
    }
    return Wrap(std::move(sketch));
  }

 private:
  WmhOptions concrete_;
};

// --- ICWS --------------------------------------------------------------------

/// Wraps the scratch-reusing IcwsSketcher context.
class IcwsFamilySketcher final : public Sketcher {
 public:
  IcwsFamilySketcher(IcwsSketcher sketcher, uint64_t dimension)
      : sketcher_(std::move(sketcher)), dimension_(dimension) {}

  Status Sketch(const SparseVector& a, AnySketch* out) override {
    if (a.dimension() != dimension_) {
      return Status::InvalidArgument(
          "vector dimension does not match the family's");
    }
    IcwsSketch* typed = GetMutableSketchAs<IcwsSketch>(out);
    if (typed == nullptr) {
      return Status::InvalidArgument("output sketch is not of family 'icws'");
    }
    return sketcher_.Sketch(a, typed);
  }

 private:
  IcwsSketcher sketcher_;
  uint64_t dimension_;
};

class IcwsFamily final : public SketchFamily {
 public:
  IcwsFamily(FamilyInfo info, FamilyOptions resolved, IcwsOptions concrete)
      : SketchFamily(std::move(info), std::move(resolved)),
        concrete_(concrete) {}

  std::unique_ptr<AnySketch> NewSketch() const override {
    return std::make_unique<TypedSketch<IcwsSketch>>();
  }

  Result<std::unique_ptr<Sketcher>> MakeSketcher() const override {
    auto made = IcwsSketcher::Make(concrete_);
    IPS_RETURN_IF_ERROR(made.status());
    return std::unique_ptr<Sketcher>(new IcwsFamilySketcher(
        std::move(made).value(), options().dimension));
  }

  Status CheckCompatible(const AnySketch& sketch) const override {
    auto typed = Cast<IcwsSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    const IcwsSketch& s = *typed.value();
    if (s.num_samples() != concrete_.num_samples ||
        s.seed != concrete_.seed || s.engine != concrete_.engine ||
        s.L != concrete_.L || s.dimension != options().dimension) {
      return Status::InvalidArgument(
          "icws sketch parameters do not match the family's "
          "(m, seed, engine, L, dimension)");
    }
    if (s.fingerprints.size() != s.values.size()) {
      return Status::InvalidArgument(
          "icws sketch fingerprint/value length mismatch");
    }
    return Status::Ok();
  }

  Result<double> Estimate(const AnySketch& a,
                          const AnySketch& b) const override {
    auto ta = Cast<IcwsSketch>(name(), a);
    IPS_RETURN_IF_ERROR(ta.status());
    auto tb = Cast<IcwsSketch>(name(), b);
    IPS_RETURN_IF_ERROR(tb.status());
    return EstimateIcwsInnerProduct(*ta.value(), *tb.value());
  }

  Result<std::unique_ptr<AnySketch>> Truncate(const AnySketch& sketch,
                                              size_t m) const override {
    auto typed = Cast<IcwsSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    if (m > typed.value()->num_samples()) {
      return Status::OutOfRange("truncation beyond the sketch's samples");
    }
    return Wrap(TruncatedIcws(*typed.value(), m));
  }

  Result<double> StorageWords(const AnySketch& sketch) const override {
    auto typed = Cast<IcwsSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    return typed.value()->StorageWords();
  }

  Result<double> ResidentWords(const AnySketch& sketch) const override {
    auto typed = Cast<IcwsSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    // A 64-bit fingerprint + a double value per sample + the norm.
    return 2.0 * static_cast<double>(typed.value()->num_samples()) + 1.0;
  }

  Status AppendLshCodes(const AnySketch& sketch,
                        std::vector<uint64_t>* out) const override {
    IPS_RETURN_IF_ERROR(CheckCompatible(sketch));
    AppendLaneCodes(GetSketchAs<IcwsSketch>(sketch)->fingerprints, out);
    return Status::Ok();
  }

  Result<std::string> Serialize(const AnySketch& sketch) const override {
    auto typed = Cast<IcwsSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    return SerializeIcws(*typed.value());
  }

  Result<std::unique_ptr<AnySketch>> Deserialize(
      std::string_view bytes) const override {
    auto parsed = DeserializeIcws(bytes);
    IPS_RETURN_IF_ERROR(parsed.status());
    return Wrap(std::move(parsed).value());
  }

 private:
  IcwsOptions concrete_;
};

// --- MH ----------------------------------------------------------------------

class MhFamily final : public SketchFamily {
 public:
  MhFamily(FamilyInfo info, FamilyOptions resolved, MhOptions concrete)
      : SketchFamily(std::move(info), std::move(resolved)),
        concrete_(concrete) {}

  std::unique_ptr<AnySketch> NewSketch() const override {
    return std::make_unique<TypedSketch<MhSketch>>();
  }

  Result<std::unique_ptr<Sketcher>> MakeSketcher() const override {
    return std::unique_ptr<Sketcher>(
        new FnSketcher<MhSketch, MhOptions, &SketchMh>(name(), concrete_,
                                                       options().dimension));
  }

  Status CheckCompatible(const AnySketch& sketch) const override {
    auto typed = Cast<MhSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    const MhSketch& s = *typed.value();
    if (s.num_samples() != concrete_.num_samples ||
        s.seed != concrete_.seed || s.hash_kind != concrete_.hash_kind ||
        s.dimension != options().dimension) {
      return Status::InvalidArgument(
          "mh sketch parameters do not match the family's "
          "(m, seed, hash, dimension)");
    }
    if (s.hashes.size() != s.values.size()) {
      return Status::InvalidArgument("mh sketch hash/value length mismatch");
    }
    return Status::Ok();
  }

  Result<double> Estimate(const AnySketch& a,
                          const AnySketch& b) const override {
    auto ta = Cast<MhSketch>(name(), a);
    IPS_RETURN_IF_ERROR(ta.status());
    auto tb = Cast<MhSketch>(name(), b);
    IPS_RETURN_IF_ERROR(tb.status());
    return EstimateMhInnerProduct(*ta.value(), *tb.value());
  }

  Result<std::unique_ptr<AnySketch>> Truncate(const AnySketch& sketch,
                                              size_t m) const override {
    auto typed = Cast<MhSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    if (m > typed.value()->num_samples()) {
      return Status::OutOfRange("truncation beyond the sketch's samples");
    }
    return Wrap(TruncatedMh(*typed.value(), m));
  }

  Result<double> StorageWords(const AnySketch& sketch) const override {
    auto typed = Cast<MhSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    return typed.value()->StorageWords();
  }

  Result<double> ResidentWords(const AnySketch& sketch) const override {
    auto typed = Cast<MhSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    // Two resident doubles per sample (hash + value).
    return 2.0 * static_cast<double>(typed.value()->num_samples());
  }

  Status AppendLshCodes(const AnySketch& sketch,
                        std::vector<uint64_t>* out) const override {
    IPS_RETURN_IF_ERROR(CheckCompatible(sketch));
    AppendLaneCodes(GetSketchAs<MhSketch>(sketch)->hashes, out);
    return Status::Ok();
  }

  Result<std::string> Serialize(const AnySketch& sketch) const override {
    auto typed = Cast<MhSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    return SerializeMh(*typed.value());
  }

  Result<std::unique_ptr<AnySketch>> Deserialize(
      std::string_view bytes) const override {
    auto parsed = DeserializeMh(bytes);
    IPS_RETURN_IF_ERROR(parsed.status());
    return Wrap(std::move(parsed).value());
  }

 private:
  MhOptions concrete_;
};

// --- KMV ---------------------------------------------------------------------

class KmvFamily final : public SketchFamily {
 public:
  KmvFamily(FamilyInfo info, FamilyOptions resolved, KmvOptions concrete)
      : SketchFamily(std::move(info), std::move(resolved)),
        concrete_(concrete) {}

  std::unique_ptr<AnySketch> NewSketch() const override {
    return std::make_unique<TypedSketch<KmvSketch>>();
  }

  Result<std::unique_ptr<Sketcher>> MakeSketcher() const override {
    return std::unique_ptr<Sketcher>(
        new FnSketcher<KmvSketch, KmvOptions, &SketchKmv>(
            name(), concrete_, options().dimension));
  }

  Status CheckCompatible(const AnySketch& sketch) const override {
    auto typed = Cast<KmvSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    const KmvSketch& s = *typed.value();
    if (s.k != concrete_.k || s.seed != concrete_.seed ||
        s.hash_kind != concrete_.hash_kind ||
        s.dimension != options().dimension) {
      return Status::InvalidArgument(
          "kmv sketch parameters do not match the family's "
          "(k, seed, hash, dimension)");
    }
    if (s.samples.size() > s.k) {
      return Status::InvalidArgument("kmv sketch holds more than k samples");
    }
    return Status::Ok();
  }

  Result<double> Estimate(const AnySketch& a,
                          const AnySketch& b) const override {
    auto ta = Cast<KmvSketch>(name(), a);
    IPS_RETURN_IF_ERROR(ta.status());
    auto tb = Cast<KmvSketch>(name(), b);
    IPS_RETURN_IF_ERROR(tb.status());
    return EstimateKmvInnerProduct(*ta.value(), *tb.value());
  }

  Result<std::unique_ptr<AnySketch>> Merge(const AnySketch& a,
                                           const AnySketch& b) const override {
    auto ta = Cast<KmvSketch>(name(), a);
    IPS_RETURN_IF_ERROR(ta.status());
    auto tb = Cast<KmvSketch>(name(), b);
    IPS_RETURN_IF_ERROR(tb.status());
    auto merged = MergeKmv(*ta.value(), *tb.value());
    IPS_RETURN_IF_ERROR(merged.status());
    return Wrap(std::move(merged).value());
  }

  Result<std::unique_ptr<AnySketch>> Truncate(const AnySketch& sketch,
                                              size_t m) const override {
    auto typed = Cast<KmvSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    if (m > typed.value()->k) {
      return Status::OutOfRange("truncation beyond the sketch's capacity");
    }
    return Wrap(TruncatedKmv(*typed.value(), m));
  }

  Result<double> StorageWords(const AnySketch& sketch) const override {
    auto typed = Cast<KmvSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    return typed.value()->StorageWords();
  }

  Result<double> ResidentWords(const AnySketch& sketch) const override {
    auto typed = Cast<KmvSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    // Two resident doubles per retained sample (hash + value).
    return 2.0 * static_cast<double>(typed.value()->samples.size());
  }

  Result<std::string> Serialize(const AnySketch& sketch) const override {
    auto typed = Cast<KmvSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    return SerializeKmv(*typed.value());
  }

  Result<std::unique_ptr<AnySketch>> Deserialize(
      std::string_view bytes) const override {
    auto parsed = DeserializeKmv(bytes);
    IPS_RETURN_IF_ERROR(parsed.status());
    return Wrap(std::move(parsed).value());
  }

 private:
  KmvOptions concrete_;
};

// --- CS ----------------------------------------------------------------------

class CsFamily final : public SketchFamily {
 public:
  CsFamily(FamilyInfo info, FamilyOptions resolved,
           CountSketchOptions concrete)
      : SketchFamily(std::move(info), std::move(resolved)),
        concrete_(concrete) {}

  std::unique_ptr<AnySketch> NewSketch() const override {
    return std::make_unique<TypedSketch<CountSketch>>();
  }

  Result<std::unique_ptr<Sketcher>> MakeSketcher() const override {
    return std::unique_ptr<Sketcher>(
        new FnSketcher<CountSketch, CountSketchOptions, &SketchCount>(
            name(), concrete_, options().dimension));
  }

  Status CheckCompatible(const AnySketch& sketch) const override {
    auto typed = Cast<CountSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    const CountSketch& s = *typed.value();
    if (s.tables.size() != concrete_.repetitions ||
        s.width() != concrete_.total_counters / concrete_.repetitions ||
        s.seed != concrete_.seed || s.dimension != options().dimension) {
      return Status::InvalidArgument(
          "cs sketch parameters do not match the family's "
          "(repetitions, width, seed, dimension)");
    }
    for (const auto& table : s.tables) {
      if (table.size() != s.width()) {
        return Status::InvalidArgument("cs sketch tables have ragged widths");
      }
    }
    return Status::Ok();
  }

  Result<double> Estimate(const AnySketch& a,
                          const AnySketch& b) const override {
    auto ta = Cast<CountSketch>(name(), a);
    IPS_RETURN_IF_ERROR(ta.status());
    auto tb = Cast<CountSketch>(name(), b);
    IPS_RETURN_IF_ERROR(tb.status());
    return EstimateCountSketchInnerProduct(*ta.value(), *tb.value());
  }

  Result<std::unique_ptr<AnySketch>> Merge(const AnySketch& a,
                                           const AnySketch& b) const override {
    auto ta = Cast<CountSketch>(name(), a);
    IPS_RETURN_IF_ERROR(ta.status());
    auto tb = Cast<CountSketch>(name(), b);
    IPS_RETURN_IF_ERROR(tb.status());
    auto merged = MergeCountSketch(*ta.value(), *tb.value());
    IPS_RETURN_IF_ERROR(merged.status());
    return Wrap(std::move(merged).value());
  }

  Result<double> StorageWords(const AnySketch& sketch) const override {
    auto typed = Cast<CountSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    return typed.value()->StorageWords();
  }

  Result<std::string> Serialize(const AnySketch& sketch) const override {
    auto typed = Cast<CountSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    return SerializeCountSketch(*typed.value());
  }

  Result<std::unique_ptr<AnySketch>> Deserialize(
      std::string_view bytes) const override {
    auto parsed = DeserializeCountSketch(bytes);
    IPS_RETURN_IF_ERROR(parsed.status());
    return Wrap(std::move(parsed).value());
  }

 private:
  CountSketchOptions concrete_;
};

// --- JL ----------------------------------------------------------------------

class JlFamily final : public SketchFamily {
 public:
  JlFamily(FamilyInfo info, FamilyOptions resolved, JlOptions concrete)
      : SketchFamily(std::move(info), std::move(resolved)),
        concrete_(concrete) {}

  std::unique_ptr<AnySketch> NewSketch() const override {
    return std::make_unique<TypedSketch<JlSketch>>();
  }

  Result<std::unique_ptr<Sketcher>> MakeSketcher() const override {
    return std::unique_ptr<Sketcher>(
        new FnSketcher<JlSketch, JlOptions, &SketchJl>(name(), concrete_,
                                                       options().dimension));
  }

  Status CheckCompatible(const AnySketch& sketch) const override {
    auto typed = Cast<JlSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    const JlSketch& s = *typed.value();
    if (s.num_rows() != concrete_.num_rows || s.seed != concrete_.seed ||
        s.dimension != options().dimension) {
      return Status::InvalidArgument(
          "jl sketch parameters do not match the family's "
          "(rows, seed, dimension)");
    }
    return Status::Ok();
  }

  Result<double> Estimate(const AnySketch& a,
                          const AnySketch& b) const override {
    auto ta = Cast<JlSketch>(name(), a);
    IPS_RETURN_IF_ERROR(ta.status());
    auto tb = Cast<JlSketch>(name(), b);
    IPS_RETURN_IF_ERROR(tb.status());
    return EstimateJlInnerProduct(*ta.value(), *tb.value());
  }

  Result<std::unique_ptr<AnySketch>> Merge(const AnySketch& a,
                                           const AnySketch& b) const override {
    auto ta = Cast<JlSketch>(name(), a);
    IPS_RETURN_IF_ERROR(ta.status());
    auto tb = Cast<JlSketch>(name(), b);
    IPS_RETURN_IF_ERROR(tb.status());
    auto merged = MergeJl(*ta.value(), *tb.value());
    IPS_RETURN_IF_ERROR(merged.status());
    return Wrap(std::move(merged).value());
  }

  Result<std::unique_ptr<AnySketch>> Truncate(const AnySketch& sketch,
                                              size_t m) const override {
    auto typed = Cast<JlSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    if (m > typed.value()->num_rows()) {
      return Status::OutOfRange("truncation beyond the sketch's rows");
    }
    return Wrap(TruncatedJl(*typed.value(), m));
  }

  Result<double> StorageWords(const AnySketch& sketch) const override {
    auto typed = Cast<JlSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    return typed.value()->StorageWords();
  }

  Result<std::string> Serialize(const AnySketch& sketch) const override {
    auto typed = Cast<JlSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    return SerializeJl(*typed.value());
  }

  Result<std::unique_ptr<AnySketch>> Deserialize(
      std::string_view bytes) const override {
    auto parsed = DeserializeJl(bytes);
    IPS_RETURN_IF_ERROR(parsed.status());
    return Wrap(std::move(parsed).value());
  }

 private:
  JlOptions concrete_;
};

// --- quantized WMH encodings -------------------------------------------------

/// Mixin implemented by the compact catalog families: the conversion from a
/// resident full-precision WmhSketch that QuantizeWmhSketch (and through
/// it, the service layer's QuantizeStore) dispatches on.
class WmhQuantizingFamily {
 public:
  virtual ~WmhQuantizingFamily() = default;

  /// The quantized form of `full`, wrapped for this family.
  virtual Result<std::unique_ptr<AnySketch>> QuantizeFrom(
      const WmhSketch& full) const = 0;
};

/// Sketcher shared by both quantized families: sketches full-precision into
/// a reusable scratch sketch with the kDart-or-configured engine (the hot
/// path is unchanged), then quantizes as a cheap post-pass.
template <typename CompactT>
class QuantizingFamilySketcher final : public Sketcher {
 public:
  QuantizingFamilySketcher(std::string family, WmhSketcher sketcher,
                           uint64_t dimension, uint32_t bits)
      : family_(std::move(family)),
        sketcher_(std::move(sketcher)),
        dimension_(dimension),
        bits_(bits) {}

  Status Sketch(const SparseVector& a, AnySketch* out) override {
    if (a.dimension() != dimension_) {
      return Status::InvalidArgument(
          "vector dimension does not match the family's");
    }
    CompactT* typed = GetMutableSketchAs<CompactT>(out);
    if (typed == nullptr) {
      return Status::InvalidArgument("output sketch is not of family '" +
                                     family_ + "'");
    }
    IPS_RETURN_IF_ERROR(sketcher_.Sketch(a, &scratch_));
    return Quantize(typed);
  }

 private:
  Status Quantize(CompactWmhSketch* out) {
    CompactFromWmh(scratch_, out);
    return Status::Ok();
  }
  Status Quantize(BbitWmhSketch* out) {
    return BbitFromWmh(scratch_, bits_, out);
  }

  std::string family_;
  WmhSketcher sketcher_;
  WmhSketch scratch_;
  uint64_t dimension_;
  uint32_t bits_;  // unused by the compact encoding
};

class CompactWmhFamily final : public SketchFamily,
                               public WmhQuantizingFamily {
 public:
  CompactWmhFamily(FamilyInfo info, FamilyOptions resolved,
                   WmhOptions concrete)
      : SketchFamily(std::move(info), std::move(resolved)),
        concrete_(concrete) {}

  std::unique_ptr<AnySketch> NewSketch() const override {
    return std::make_unique<TypedSketch<CompactWmhSketch>>();
  }

  Result<std::unique_ptr<Sketcher>> MakeSketcher() const override {
    auto made = WmhSketcher::Make(concrete_);
    IPS_RETURN_IF_ERROR(made.status());
    return std::unique_ptr<Sketcher>(
        new QuantizingFamilySketcher<CompactWmhSketch>(
            name(), std::move(made).value(), options().dimension,
            /*bits=*/0));
  }

  Status CheckCompatible(const AnySketch& sketch) const override {
    auto typed = Cast<CompactWmhSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    const CompactWmhSketch& s = *typed.value();
    if (s.num_samples() != concrete_.num_samples ||
        s.seed != concrete_.seed || s.L != concrete_.L ||
        s.engine != concrete_.engine ||
        s.dimension != options().dimension) {
      return Status::InvalidArgument(
          "wmh_compact sketch parameters do not match the family's "
          "(m, seed, L, engine, dimension)");
    }
    if (s.hashes.size() != s.values.size()) {
      return Status::InvalidArgument(
          "wmh_compact sketch hash/value length mismatch");
    }
    return Status::Ok();
  }

  Result<double> Estimate(const AnySketch& a,
                          const AnySketch& b) const override {
    auto ta = Cast<CompactWmhSketch>(name(), a);
    IPS_RETURN_IF_ERROR(ta.status());
    auto tb = Cast<CompactWmhSketch>(name(), b);
    IPS_RETURN_IF_ERROR(tb.status());
    return EstimateCompactWmhInnerProduct(*ta.value(), *tb.value());
  }

  Result<std::unique_ptr<AnySketch>> Truncate(const AnySketch& sketch,
                                              size_t m) const override {
    auto typed = Cast<CompactWmhSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    if (m > typed.value()->num_samples()) {
      return Status::OutOfRange("truncation beyond the sketch's samples");
    }
    // Compact sketches are coordinate-wise, so prefix slicing is exact:
    // truncation commutes with quantization.
    return Wrap(TruncatedCompactWmh(*typed.value(), m));
  }

  Result<double> StorageWords(const AnySketch& sketch) const override {
    auto typed = Cast<CompactWmhSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    return typed.value()->StorageWords();
  }

  Status AppendLshCodes(const AnySketch& sketch,
                        std::vector<uint64_t>* out) const override {
    IPS_RETURN_IF_ERROR(CheckCompatible(sketch));
    AppendLaneCodes(GetSketchAs<CompactWmhSketch>(sketch)->hashes, out);
    return Status::Ok();
  }

  Result<std::string> Serialize(const AnySketch& sketch) const override {
    auto typed = Cast<CompactWmhSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    return SerializeCompactWmh(*typed.value());
  }

  Result<std::unique_ptr<AnySketch>> Deserialize(
      std::string_view bytes) const override {
    auto parsed = DeserializeCompactWmh(bytes);
    IPS_RETURN_IF_ERROR(parsed.status());
    return Wrap(std::move(parsed).value());
  }

  Result<std::unique_ptr<AnySketch>> QuantizeFrom(
      const WmhSketch& full) const override {
    return Wrap(CompactFromWmh(full));
  }

 private:
  WmhOptions concrete_;
};

class BbitWmhFamily final : public SketchFamily, public WmhQuantizingFamily {
 public:
  BbitWmhFamily(FamilyInfo info, FamilyOptions resolved, WmhOptions concrete,
                uint32_t bits)
      : SketchFamily(std::move(info), std::move(resolved)),
        concrete_(concrete),
        bits_(bits) {}

  std::unique_ptr<AnySketch> NewSketch() const override {
    return std::make_unique<TypedSketch<BbitWmhSketch>>();
  }

  Result<std::unique_ptr<Sketcher>> MakeSketcher() const override {
    auto made = WmhSketcher::Make(concrete_);
    IPS_RETURN_IF_ERROR(made.status());
    return std::unique_ptr<Sketcher>(
        new QuantizingFamilySketcher<BbitWmhSketch>(
            name(), std::move(made).value(), options().dimension, bits_));
  }

  Status CheckCompatible(const AnySketch& sketch) const override {
    auto typed = Cast<BbitWmhSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    const BbitWmhSketch& s = *typed.value();
    if (s.num_samples() != concrete_.num_samples ||
        s.seed != concrete_.seed || s.L != concrete_.L ||
        s.engine != concrete_.engine || s.bits != bits_ ||
        s.dimension != options().dimension) {
      return Status::InvalidArgument(
          "wmh_bbit sketch parameters do not match the family's "
          "(m, seed, L, engine, bits, dimension)");
    }
    if (s.fingerprints.size() != s.values.size()) {
      return Status::InvalidArgument(
          "wmh_bbit sketch fingerprint/value length mismatch");
    }
    // The same declared-width invariant the wire decoder enforces on load
    // — otherwise a store could persist a file its own decoder refuses to
    // reopen.
    return CheckBbitFingerprintWidths(s);
  }

  Result<double> Estimate(const AnySketch& a,
                          const AnySketch& b) const override {
    auto ta = Cast<BbitWmhSketch>(name(), a);
    IPS_RETURN_IF_ERROR(ta.status());
    auto tb = Cast<BbitWmhSketch>(name(), b);
    IPS_RETURN_IF_ERROR(tb.status());
    return EstimateBbitWmhInnerProduct(*ta.value(), *tb.value());
  }

  Result<std::unique_ptr<AnySketch>> Truncate(const AnySketch& sketch,
                                              size_t m) const override {
    auto typed = Cast<BbitWmhSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    if (m > typed.value()->num_samples()) {
      return Status::OutOfRange("truncation beyond the sketch's samples");
    }
    return Wrap(TruncatedBbitWmh(*typed.value(), m));
  }

  Result<double> StorageWords(const AnySketch& sketch) const override {
    auto typed = Cast<BbitWmhSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    return typed.value()->StorageWords();
  }

  Result<double> ResidentWords(const AnySketch& sketch) const override {
    auto typed = Cast<BbitWmhSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    // Fingerprints live in uint32_t slots regardless of b, so the resident
    // footprint is one word per sample + the norm (the §5 accounting
    // charges only (b + 32)/64 per sample).
    return static_cast<double>(typed.value()->num_samples()) + 1.0;
  }

  Status AppendLshCodes(const AnySketch& sketch,
                        std::vector<uint64_t>* out) const override {
    IPS_RETURN_IF_ERROR(CheckCompatible(sketch));
    AppendLaneCodes(GetSketchAs<BbitWmhSketch>(sketch)->fingerprints, out);
    return Status::Ok();
  }

  Result<std::string> Serialize(const AnySketch& sketch) const override {
    auto typed = Cast<BbitWmhSketch>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    return SerializeBbitWmh(*typed.value());
  }

  Result<std::unique_ptr<AnySketch>> Deserialize(
      std::string_view bytes) const override {
    auto parsed = DeserializeBbitWmh(bytes);
    IPS_RETURN_IF_ERROR(parsed.status());
    return Wrap(std::move(parsed).value());
  }

  Result<std::unique_ptr<AnySketch>> QuantizeFrom(
      const WmhSketch& full) const override {
    auto quantized = BbitFromWmh(full, bits_);
    IPS_RETURN_IF_ERROR(quantized.status());
    return Wrap(std::move(quantized).value());
  }

 private:
  WmhOptions concrete_;
  uint32_t bits_;
};

// --- per-family construction -------------------------------------------------

/// Parses and resolves the WMH-shaped params {L, engine} shared by "wmh"
/// and its quantized encodings: defaults are materialized into
/// `options->params` so the resolved identity is complete and comparable.
Status ResolveWmhParams(FamilyOptions* options, WmhOptions* concrete) {
  concrete->num_samples = options->num_samples;
  concrete->seed = options->seed;
  IPS_RETURN_IF_ERROR(ParseU64Param(*options, "L", &concrete->L));
  auto engine_it = options->params.find("engine");
  if (engine_it != options->params.end()) {
    if (engine_it->second == "active_index") {
      concrete->engine = WmhEngine::kActiveIndex;
    } else if (engine_it->second == "expanded_reference") {
      concrete->engine = WmhEngine::kExpandedReference;
    } else if (engine_it->second == "dart") {
      concrete->engine = WmhEngine::kDart;
    } else {
      return Status::InvalidArgument(
          "option 'engine' must be dart, active_index, or "
          "expanded_reference; got " +
          engine_it->second);
    }
  }
  // Resolve L and the engine here, as the store always has: every sketch
  // built through this family — and every later reopening of a persisted
  // store — agrees on them.
  if (concrete->L == 0) concrete->L = DefaultL(options->dimension);
  IPS_RETURN_IF_ERROR(concrete->Validate());
  options->params["L"] = std::to_string(concrete->L);
  options->params["engine"] = WmhEngineName(concrete->engine);
  return Status::Ok();
}

Result<std::shared_ptr<const SketchFamily>> MakeWmh(const FamilyInfo& info,
                                                    FamilyOptions options) {
  IPS_RETURN_IF_ERROR(CheckKnownParams("wmh", options, {"L", "engine"}));
  WmhOptions concrete;
  IPS_RETURN_IF_ERROR(ResolveWmhParams(&options, &concrete));
  return std::shared_ptr<const SketchFamily>(
      new WmhFamily(info, std::move(options), concrete));
}

Result<std::shared_ptr<const SketchFamily>> MakeWmhCompact(
    const FamilyInfo& info, FamilyOptions options) {
  IPS_RETURN_IF_ERROR(
      CheckKnownParams("wmh_compact", options, {"L", "engine"}));
  WmhOptions concrete;
  IPS_RETURN_IF_ERROR(ResolveWmhParams(&options, &concrete));
  return std::shared_ptr<const SketchFamily>(
      new CompactWmhFamily(info, std::move(options), concrete));
}

Result<std::shared_ptr<const SketchFamily>> MakeWmhBbit(
    const FamilyInfo& info, FamilyOptions options) {
  IPS_RETURN_IF_ERROR(
      CheckKnownParams("wmh_bbit", options, {"L", "engine", "bits"}));
  uint64_t bits = 16;  // the b-bit literature's default operating point
  IPS_RETURN_IF_ERROR(ParseU64Param(options, "bits", &bits));
  if (bits < 1 || bits > 32) {
    return Status::InvalidArgument("option 'bits' must be in [1, 32]; got " +
                                   std::to_string(bits));
  }
  WmhOptions concrete;
  IPS_RETURN_IF_ERROR(ResolveWmhParams(&options, &concrete));
  options.params["bits"] = std::to_string(bits);
  return std::shared_ptr<const SketchFamily>(new BbitWmhFamily(
      info, std::move(options), concrete, static_cast<uint32_t>(bits)));
}

Result<std::shared_ptr<const SketchFamily>> MakeIcws(const FamilyInfo& info,
                                                     FamilyOptions options) {
  IPS_RETURN_IF_ERROR(CheckKnownParams("icws", options, {"L", "engine"}));
  IcwsOptions concrete;
  concrete.num_samples = options.num_samples;
  concrete.seed = options.seed;
  // The family default is the fast ingest engine; the core IcwsOptions
  // default stays kExact (the continuous reference for direct callers).
  concrete.engine = IcwsEngine::kDart;
  auto engine_it = options.params.find("engine");
  if (engine_it != options.params.end()) {
    if (engine_it->second == "icws") {
      concrete.engine = IcwsEngine::kExact;
    } else if (engine_it->second == "dart") {
      concrete.engine = IcwsEngine::kDart;
    } else {
      return Status::InvalidArgument(
          "option 'engine' must be dart or icws; got " + engine_it->second);
    }
  }
  IPS_RETURN_IF_ERROR(ParseU64Param(options, "L", &concrete.L));
  if (concrete.engine == IcwsEngine::kExact) {
    if (options.params.count("L") != 0) {
      return Status::InvalidArgument(
          "option 'L' requires engine=dart (the exact ICWS engine has no "
          "discretization parameter)");
    }
    concrete.L = 0;
    options.params["engine"] = "icws";
  } else {
    if (concrete.L == 0) concrete.L = DefaultL(options.dimension);
    options.params["engine"] = "dart";
    options.params["L"] = std::to_string(concrete.L);
  }
  IPS_RETURN_IF_ERROR(concrete.Validate());
  return std::shared_ptr<const SketchFamily>(
      new IcwsFamily(info, std::move(options), concrete));
}

Result<std::shared_ptr<const SketchFamily>> MakeMh(const FamilyInfo& info,
                                                   FamilyOptions options) {
  IPS_RETURN_IF_ERROR(CheckKnownParams("mh", options, {"hash"}));
  MhOptions concrete;
  concrete.num_samples = options.num_samples;
  concrete.seed = options.seed;
  IPS_RETURN_IF_ERROR(ParseHashKindParam(options, &concrete.hash_kind));
  IPS_RETURN_IF_ERROR(concrete.Validate());
  options.params["hash"] = HashKindName(concrete.hash_kind);
  return std::shared_ptr<const SketchFamily>(
      new MhFamily(info, std::move(options), concrete));
}

Result<std::shared_ptr<const SketchFamily>> MakeKmv(const FamilyInfo& info,
                                                    FamilyOptions options) {
  IPS_RETURN_IF_ERROR(CheckKnownParams("kmv", options, {"hash"}));
  KmvOptions concrete;
  concrete.k = options.num_samples;
  concrete.seed = options.seed;
  IPS_RETURN_IF_ERROR(ParseHashKindParam(options, &concrete.hash_kind));
  IPS_RETURN_IF_ERROR(concrete.Validate());
  options.params["hash"] = HashKindName(concrete.hash_kind);
  return std::shared_ptr<const SketchFamily>(
      new KmvFamily(info, std::move(options), concrete));
}

Result<std::shared_ptr<const SketchFamily>> MakeCs(const FamilyInfo& info,
                                                   FamilyOptions options) {
  IPS_RETURN_IF_ERROR(CheckKnownParams("cs", options, {"repetitions"}));
  CountSketchOptions concrete;
  concrete.total_counters = options.num_samples;
  concrete.seed = options.seed;
  uint64_t repetitions = concrete.repetitions;
  IPS_RETURN_IF_ERROR(ParseU64Param(options, "repetitions", &repetitions));
  concrete.repetitions = static_cast<size_t>(repetitions);
  IPS_RETURN_IF_ERROR(concrete.Validate());
  options.params["repetitions"] = std::to_string(concrete.repetitions);
  return std::shared_ptr<const SketchFamily>(
      new CsFamily(info, std::move(options), concrete));
}

Result<std::shared_ptr<const SketchFamily>> MakeJl(const FamilyInfo& info,
                                                   FamilyOptions options) {
  IPS_RETURN_IF_ERROR(CheckKnownParams("jl", options, {}));
  JlOptions concrete;
  concrete.num_rows = options.num_samples;
  concrete.seed = options.seed;
  IPS_RETURN_IF_ERROR(concrete.Validate());
  return std::shared_ptr<const SketchFamily>(
      new JlFamily(info, std::move(options), concrete));
}

}  // namespace

// --- registry ----------------------------------------------------------------

const std::vector<FamilyInfo>& RegisteredFamilies() {
  static const std::vector<FamilyInfo>* families = new std::vector<FamilyInfo>{
      {"jl", "JL", StorageClass::kLinear, /*merge=*/true, /*trunc=*/true,
       /*banding=*/false},
      {"cs", "CS", StorageClass::kLinear, /*merge=*/true, /*trunc=*/false,
       /*banding=*/false},
      {"mh", "MH", StorageClass::kSampling, /*merge=*/false, /*trunc=*/true,
       /*banding=*/true},
      {"kmv", "KMV", StorageClass::kSampling, /*merge=*/true, /*trunc=*/true,
       /*banding=*/false},
      {"wmh", "WMH", StorageClass::kSamplingWithNorm, /*merge=*/false,
       /*trunc=*/true, /*banding=*/true},
      {"icws", "ICWS", StorageClass::kSamplingWithNorm, /*merge=*/false,
       /*trunc=*/true, /*banding=*/true},
      {"wmh_compact", "WMH32", StorageClass::kCompactSamplingWithNorm,
       /*merge=*/false, /*trunc=*/true, /*banding=*/true},
      {"wmh_bbit", "WMHb", StorageClass::kBbitSamplingWithNorm,
       /*merge=*/false, /*trunc=*/true, /*banding=*/true},
  };
  return *families;
}

Result<FamilyInfo> GetFamilyInfo(const std::string& name) {
  for (const FamilyInfo& info : RegisteredFamilies()) {
    if (info.name == name) return info;
  }
  std::string known;
  for (const FamilyInfo& info : RegisteredFamilies()) {
    if (!known.empty()) known += ", ";
    known += info.name;
  }
  return Status::InvalidArgument("unknown sketch family '" + name +
                                 "' (registered: " + known + ")");
}

Result<std::shared_ptr<const SketchFamily>> MakeFamily(
    const std::string& name, const FamilyOptions& options) {
  auto info = GetFamilyInfo(name);
  IPS_RETURN_IF_ERROR(info.status());
  IPS_RETURN_IF_ERROR(CommonValidate(options));
  if (name == "wmh") return MakeWmh(info.value(), options);
  if (name == "wmh_compact") return MakeWmhCompact(info.value(), options);
  if (name == "wmh_bbit") return MakeWmhBbit(info.value(), options);
  if (name == "icws") return MakeIcws(info.value(), options);
  if (name == "mh") return MakeMh(info.value(), options);
  if (name == "kmv") return MakeKmv(info.value(), options);
  if (name == "cs") return MakeCs(info.value(), options);
  return MakeJl(info.value(), options);
}

Result<std::unique_ptr<AnySketch>> QuantizeWmhSketch(
    const SketchFamily& target, const AnySketch& full) {
  const auto* quantizing = dynamic_cast<const WmhQuantizingFamily*>(&target);
  if (quantizing == nullptr) {
    return Status::InvalidArgument(
        "family '" + target.name() +
        "' is not a quantized WMH encoding (expected wmh_compact or "
        "wmh_bbit)");
  }
  const WmhSketch* typed = GetSketchAs<WmhSketch>(full);
  if (typed == nullptr) {
    return Status::InvalidArgument(
        "only full-precision wmh sketches can be quantized");
  }
  auto out = quantizing->QuantizeFrom(*typed);
  IPS_RETURN_IF_ERROR(out.status());
  // The quantized sketch must land exactly on the target's resolved
  // identity — a full sketch built with different (m, seed, L, engine) is
  // rejected here, never silently relabeled.
  IPS_RETURN_IF_ERROR(target.CheckCompatible(*out.value()));
  return out;
}

}  // namespace ipsketch
