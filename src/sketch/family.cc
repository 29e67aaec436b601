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

Status NotOfFamily(const std::string& family) {
  return Status::InvalidArgument("sketch is not of family '" + family + "'");
}

/// Downcasts or explains which family the operation belongs to.
template <typename T>
Result<const T*> Cast(const std::string& family, const AnySketch& sketch) {
  const T* typed = GetSketchAs<T>(sketch);
  if (typed == nullptr) return NotOfFamily(family);
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

// --- the one family implementation -------------------------------------------

/// The one Sketcher: checks the vector's dimension and the output sketch's
/// type, then runs the family's sketching context — any `Engine` with
/// `Status Sketch(const SparseVector&, SketchT*)`.
template <typename SketchT, typename Engine>
class TypedSketcher final : public Sketcher {
 public:
  TypedSketcher(std::string family, uint64_t dimension, Engine engine)
      : family_(std::move(family)),
        dimension_(dimension),
        engine_(std::move(engine)) {}

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
    return engine_.Sketch(a, typed);
  }

 private:
  std::string family_;
  uint64_t dimension_;
  Engine engine_;
};

/// The one SketchFamily. `Spec` holds only what differs between families:
///
///   Sketch, Engine             the sketch type and its sketching context
///   MakeEngine()               a fresh context from the resolved options
///   Check(sketch, dimension)   CheckCompatible after the downcast
///   Estimate, Serialize, Deserialize   the core functions over Sketch
///
/// and, exactly when the family has the capability (the registry row's
/// flags must agree; family_registry_test checks each one):
///
///   Merge                                  supports_merge
///   Truncated, Capacity, kCapacityUnit     supports_truncation
///   LshLane                                supports_banding
///   ResidentWords   a resident layout wider than the §5 accounting
///   Quantize        the quantized WMH encodings (QuantizeWmhSketch)
///
/// A capability the Spec lacks falls through to the SketchFamily default.
template <typename Spec>
class TypedFamily final : public SketchFamily {
 public:
  using SketchT = typename Spec::Sketch;

  TypedFamily(FamilyInfo info, FamilyOptions resolved, Spec spec)
      : SketchFamily(std::move(info), std::move(resolved)),
        spec_(std::move(spec)) {}

  std::unique_ptr<AnySketch> NewSketch() const override {
    return std::make_unique<TypedSketch<SketchT>>();
  }

  Result<std::unique_ptr<Sketcher>> MakeSketcher() const override {
    auto engine = spec_.MakeEngine();
    IPS_RETURN_IF_ERROR(engine.status());
    return std::unique_ptr<Sketcher>(
        new TypedSketcher<SketchT, typename Spec::Engine>(
            name(), options().dimension, std::move(engine).value()));
  }

  Status CheckCompatible(const AnySketch& sketch) const override {
    auto typed = Cast<SketchT>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    return spec_.Check(*typed.value(), options().dimension);
  }

  Status EstimateMany(std::span<const AnySketch* const> queries,
                      std::span<const AnySketch* const> stored,
                      std::span<double> out) const override {
    IPS_CHECK(out.size() == queries.size() * stored.size());
    if (out.empty()) return Status::Ok();
    // Each query is downcast once per call: on the stack for any batch the
    // FrontDoor forms (at most 32 queries), on the heap beyond that. The
    // stack slots are left uninitialized because each is written before it
    // is read, and zeroing them would cost the one-pair form more than the
    // dispatch this call saves it.
    constexpr size_t kStackQueries = 32;
    const SketchT* stack_typed[kStackQueries];
    std::vector<const SketchT*> heap_typed(
        queries.size() > kStackQueries ? queries.size() : 0);
    const SketchT** typed =
        heap_typed.empty() ? stack_typed : heap_typed.data();
    for (size_t i = 0; i < queries.size(); ++i) {
      typed[i] = GetSketchAs<SketchT>(*queries[i]);
      if (typed[i] == nullptr) return NotOfFamily(name());
    }
    // Stored-major, so each stored sketch is downcast once and read while
    // every query scores against it.
    const size_t n = stored.size();
    for (size_t j = 0; j < n; ++j) {
      const SketchT* s = GetSketchAs<SketchT>(*stored[j]);
      if (s == nullptr) return NotOfFamily(name());
      for (size_t i = 0; i < queries.size(); ++i) {
        const Result<double> estimate = Spec::Estimate(*typed[i], *s);
        if (!estimate.ok()) return estimate.status();
        out[i * n + j] = estimate.value();
      }
    }
    return Status::Ok();
  }

  Result<std::unique_ptr<AnySketch>> Merge(const AnySketch& a,
                                           const AnySketch& b) const override {
    if constexpr (requires { &Spec::Merge; }) {
      auto ta = Cast<SketchT>(name(), a);
      IPS_RETURN_IF_ERROR(ta.status());
      auto tb = Cast<SketchT>(name(), b);
      IPS_RETURN_IF_ERROR(tb.status());
      auto merged = Spec::Merge(*ta.value(), *tb.value());
      IPS_RETURN_IF_ERROR(merged.status());
      return Wrap(std::move(merged).value());
    } else {
      return SketchFamily::Merge(a, b);
    }
  }

  Result<std::unique_ptr<AnySketch>> Truncate(const AnySketch& sketch,
                                              size_t m) const override {
    if constexpr (requires { &Spec::Truncated; }) {
      auto typed = Cast<SketchT>(name(), sketch);
      IPS_RETURN_IF_ERROR(typed.status());
      // The core Truncated* functions require 1 <= m <= capacity.
      if (m == 0) {
        return Status::OutOfRange("truncation to an empty sketch (m = 0)");
      }
      if (m > Spec::Capacity(*typed.value())) {
        return Status::OutOfRange("truncation beyond the sketch's " +
                                  std::string(Spec::kCapacityUnit));
      }
      return Wrap(Spec::Truncated(*typed.value(), m));
    } else {
      return SketchFamily::Truncate(sketch, m);
    }
  }

  Result<double> StorageWords(const AnySketch& sketch) const override {
    auto typed = Cast<SketchT>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    return typed.value()->StorageWords();
  }

  Result<double> ResidentWords(const AnySketch& sketch) const override {
    if constexpr (requires { &Spec::ResidentWords; }) {
      auto typed = Cast<SketchT>(name(), sketch);
      IPS_RETURN_IF_ERROR(typed.status());
      return Spec::ResidentWords(*typed.value());
    } else {
      return SketchFamily::ResidentWords(sketch);
    }
  }

  Status AppendLshCodes(const AnySketch& sketch,
                        std::vector<uint64_t>* out) const override {
    if constexpr (requires { &Spec::LshLane; }) {
      IPS_RETURN_IF_ERROR(CheckCompatible(sketch));
      AppendLaneCodes(Spec::LshLane(*GetSketchAs<SketchT>(sketch)), out);
      return Status::Ok();
    } else {
      return SketchFamily::AppendLshCodes(sketch, out);
    }
  }

  Result<std::string> Serialize(const AnySketch& sketch) const override {
    auto typed = Cast<SketchT>(name(), sketch);
    IPS_RETURN_IF_ERROR(typed.status());
    return Spec::Serialize(*typed.value());
  }

  Result<std::unique_ptr<AnySketch>> Deserialize(
      std::string_view bytes) const override {
    auto parsed = spec_.Deserialize(bytes);
    IPS_RETURN_IF_ERROR(parsed.status());
    return Wrap(std::move(parsed).value());
  }

  /// `full` in this family's encoding; instantiated only for the quantized
  /// WMH families, whose Spec defines Quantize.
  Result<std::unique_ptr<AnySketch>> QuantizeFrom(const WmhSketch& full) const {
    SketchT out;
    IPS_RETURN_IF_ERROR(spec_.Quantize(full, &out));
    return Wrap(std::move(out));
  }

 private:
  Spec spec_;
};

// --- sketching contexts ------------------------------------------------------

/// Context over a plain SketchX(vector, options) function: no scratch state
/// beyond the output sketch itself (whose buffers are reused via move
/// assignment).
template <typename SketchT, typename OptionsT,
          Result<SketchT> (*SketchFn)(const SparseVector&, const OptionsT&)>
struct FnEngine {
  OptionsT options;

  Status Sketch(const SparseVector& a, SketchT* out) {
    auto sketched = SketchFn(a, options);
    IPS_RETURN_IF_ERROR(sketched.status());
    *out = std::move(sketched).value();
    return Status::Ok();
  }
};

/// Context of the quantized WMH encodings: sketches full-precision into a
/// reusable scratch sketch with the configured engine (the hot path is
/// unchanged), then quantizes as a cheap post-pass.
template <typename Spec>
struct QuantizingEngine {
  Spec spec;
  WmhSketcher full;
  WmhSketch scratch;

  static Result<QuantizingEngine> Make(const Spec& spec) {
    auto full = WmhSketcher::Make(spec.concrete);
    IPS_RETURN_IF_ERROR(full.status());
    return QuantizingEngine{spec, std::move(full).value(), WmhSketch()};
  }

  Status Sketch(const SparseVector& a, typename Spec::Sketch* out) {
    IPS_RETURN_IF_ERROR(full.Sketch(a, &scratch));
    return spec.Quantize(scratch, out);
  }
};

/// True iff `s` carries the (m, seed, L, engine, dimension) identity of
/// `options` — the WMH-shaped families' shared compatibility core.
template <typename SketchT, typename OptionsT>
bool HasIdentity(const SketchT& s, const OptionsT& options,
                 uint64_t dimension) {
  return s.num_samples() == options.num_samples && s.seed == options.seed &&
         s.L == options.L && s.engine == options.engine &&
         s.dimension == dimension;
}

// --- the eight families ------------------------------------------------------

struct WmhSpec {
  using Sketch = WmhSketch;
  using Engine = WmhSketcher;
  WmhOptions concrete;

  Result<Engine> MakeEngine() const { return WmhSketcher::Make(concrete); }

  Status Check(const WmhSketch& s, uint64_t dimension) const {
    if (!HasIdentity(s, concrete, dimension)) {
      return Status::InvalidArgument(
          "wmh sketch parameters do not match the family's "
          "(m, seed, L, engine, dimension)");
    }
    if (s.hashes.size() != s.values.size()) {
      return Status::InvalidArgument("wmh sketch hash/value length mismatch");
    }
    return Status::Ok();
  }

  static Result<double> Estimate(const WmhSketch& a, const WmhSketch& b) {
    return EstimateWmhInnerProduct(a, b);
  }
  static constexpr const char* kCapacityUnit = "samples";
  static size_t Capacity(const WmhSketch& s) { return s.num_samples(); }
  static WmhSketch Truncated(const WmhSketch& s, size_t m) {
    return TruncatedWmh(s, m);
  }
  static const auto& LshLane(const WmhSketch& s) { return s.hashes; }
  static double ResidentWords(const WmhSketch& s) {
    // Two resident doubles per sample (hash + value) + the norm; the §5
    // accounting charges only 1.5 words because it assumes a 32-bit hash.
    return 2.0 * static_cast<double>(s.num_samples()) + 1.0;
  }
  static std::string Serialize(const WmhSketch& s) { return SerializeWmh(s); }

  Result<WmhSketch> Deserialize(std::string_view bytes) const {
    bool v1_payload = false;
    auto parsed = DeserializeWmh(bytes, &v1_payload);
    IPS_RETURN_IF_ERROR(parsed.status());
    WmhSketch sketch = std::move(parsed).value();
    // Engine-less v1 payloads were built by whichever v1-era engine this
    // family resolves to (the store header is authoritative) — adopt it so
    // legacy expanded_reference catalogs keep loading. A dart family never
    // adopts: no v1 producer existed for it.
    if (v1_payload && (concrete.engine == WmhEngine::kActiveIndex ||
                       concrete.engine == WmhEngine::kExpandedReference)) {
      sketch.engine = concrete.engine;
    }
    return sketch;
  }
};

struct IcwsSpec {
  using Sketch = IcwsSketch;
  using Engine = IcwsSketcher;
  IcwsOptions concrete;

  Result<Engine> MakeEngine() const { return IcwsSketcher::Make(concrete); }

  Status Check(const IcwsSketch& s, uint64_t dimension) const {
    if (!HasIdentity(s, concrete, dimension)) {
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

  static Result<double> Estimate(const IcwsSketch& a, const IcwsSketch& b) {
    return EstimateIcwsInnerProduct(a, b);
  }
  static constexpr const char* kCapacityUnit = "samples";
  static size_t Capacity(const IcwsSketch& s) { return s.num_samples(); }
  static IcwsSketch Truncated(const IcwsSketch& s, size_t m) {
    return TruncatedIcws(s, m);
  }
  static const auto& LshLane(const IcwsSketch& s) { return s.fingerprints; }
  static double ResidentWords(const IcwsSketch& s) {
    // A 64-bit fingerprint + a double value per sample + the norm.
    return 2.0 * static_cast<double>(s.num_samples()) + 1.0;
  }
  static std::string Serialize(const IcwsSketch& s) { return SerializeIcws(s); }
  static Result<IcwsSketch> Deserialize(std::string_view bytes) {
    return DeserializeIcws(bytes);
  }
};

struct MhSpec {
  using Sketch = MhSketch;
  using Engine = FnEngine<MhSketch, MhOptions, &SketchMh>;
  MhOptions concrete;

  Result<Engine> MakeEngine() const { return Engine{concrete}; }

  Status Check(const MhSketch& s, uint64_t dimension) const {
    if (s.num_samples() != concrete.num_samples || s.seed != concrete.seed ||
        s.hash_kind != concrete.hash_kind || s.dimension != dimension) {
      return Status::InvalidArgument(
          "mh sketch parameters do not match the family's "
          "(m, seed, hash, dimension)");
    }
    if (s.hashes.size() != s.values.size()) {
      return Status::InvalidArgument("mh sketch hash/value length mismatch");
    }
    return Status::Ok();
  }

  static Result<double> Estimate(const MhSketch& a, const MhSketch& b) {
    return EstimateMhInnerProduct(a, b);
  }
  static constexpr const char* kCapacityUnit = "samples";
  static size_t Capacity(const MhSketch& s) { return s.num_samples(); }
  static MhSketch Truncated(const MhSketch& s, size_t m) {
    return TruncatedMh(s, m);
  }
  static const auto& LshLane(const MhSketch& s) { return s.hashes; }
  static double ResidentWords(const MhSketch& s) {
    // Two resident doubles per sample (hash + value).
    return 2.0 * static_cast<double>(s.num_samples());
  }
  static std::string Serialize(const MhSketch& s) { return SerializeMh(s); }
  static Result<MhSketch> Deserialize(std::string_view bytes) {
    return DeserializeMh(bytes);
  }
};

struct KmvSpec {
  using Sketch = KmvSketch;
  using Engine = FnEngine<KmvSketch, KmvOptions, &SketchKmv>;
  KmvOptions concrete;

  Result<Engine> MakeEngine() const { return Engine{concrete}; }

  Status Check(const KmvSketch& s, uint64_t dimension) const {
    if (s.k != concrete.k || s.seed != concrete.seed ||
        s.hash_kind != concrete.hash_kind || s.dimension != dimension) {
      return Status::InvalidArgument(
          "kmv sketch parameters do not match the family's "
          "(k, seed, hash, dimension)");
    }
    if (s.samples.size() > s.k) {
      return Status::InvalidArgument("kmv sketch holds more than k samples");
    }
    return Status::Ok();
  }

  static Result<double> Estimate(const KmvSketch& a, const KmvSketch& b) {
    return EstimateKmvInnerProduct(a, b);
  }
  static Result<KmvSketch> Merge(const KmvSketch& a, const KmvSketch& b) {
    return MergeKmv(a, b);
  }
  static constexpr const char* kCapacityUnit = "capacity";
  static size_t Capacity(const KmvSketch& s) { return s.k; }
  static KmvSketch Truncated(const KmvSketch& s, size_t m) {
    return TruncatedKmv(s, m);
  }
  static double ResidentWords(const KmvSketch& s) {
    // Two resident doubles per retained sample (hash + value).
    return 2.0 * static_cast<double>(s.samples.size());
  }
  static std::string Serialize(const KmvSketch& s) { return SerializeKmv(s); }
  static Result<KmvSketch> Deserialize(std::string_view bytes) {
    return DeserializeKmv(bytes);
  }
};

struct CsSpec {
  using Sketch = CountSketch;
  using Engine = FnEngine<CountSketch, CountSketchOptions, &SketchCount>;
  CountSketchOptions concrete;

  Result<Engine> MakeEngine() const { return Engine{concrete}; }

  Status Check(const CountSketch& s, uint64_t dimension) const {
    if (s.tables.size() != concrete.repetitions ||
        s.width() != concrete.total_counters / concrete.repetitions ||
        s.seed != concrete.seed || s.dimension != dimension) {
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

  static Result<double> Estimate(const CountSketch& a, const CountSketch& b) {
    return EstimateCountSketchInnerProduct(a, b);
  }
  static Result<CountSketch> Merge(const CountSketch& a, const CountSketch& b) {
    return MergeCountSketch(a, b);
  }
  static std::string Serialize(const CountSketch& s) {
    return SerializeCountSketch(s);
  }
  static Result<CountSketch> Deserialize(std::string_view bytes) {
    return DeserializeCountSketch(bytes);
  }
};

struct JlSpec {
  using Sketch = JlSketch;
  using Engine = FnEngine<JlSketch, JlOptions, &SketchJl>;
  JlOptions concrete;

  Result<Engine> MakeEngine() const { return Engine{concrete}; }

  Status Check(const JlSketch& s, uint64_t dimension) const {
    if (s.num_rows() != concrete.num_rows || s.seed != concrete.seed ||
        s.dimension != dimension) {
      return Status::InvalidArgument(
          "jl sketch parameters do not match the family's "
          "(rows, seed, dimension)");
    }
    return Status::Ok();
  }

  static Result<double> Estimate(const JlSketch& a, const JlSketch& b) {
    return EstimateJlInnerProduct(a, b);
  }
  static Result<JlSketch> Merge(const JlSketch& a, const JlSketch& b) {
    return MergeJl(a, b);
  }
  static constexpr const char* kCapacityUnit = "rows";
  static size_t Capacity(const JlSketch& s) { return s.num_rows(); }
  static JlSketch Truncated(const JlSketch& s, size_t m) {
    return TruncatedJl(s, m);
  }
  static std::string Serialize(const JlSketch& s) { return SerializeJl(s); }
  static Result<JlSketch> Deserialize(std::string_view bytes) {
    return DeserializeJl(bytes);
  }
};

struct CompactWmhSpec {
  using Sketch = CompactWmhSketch;
  using Engine = QuantizingEngine<CompactWmhSpec>;
  WmhOptions concrete;

  Result<Engine> MakeEngine() const { return Engine::Make(*this); }
  Status Quantize(const WmhSketch& full, CompactWmhSketch* out) const {
    CompactFromWmh(full, out);
    return Status::Ok();
  }

  Status Check(const CompactWmhSketch& s, uint64_t dimension) const {
    if (!HasIdentity(s, concrete, dimension)) {
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

  static Result<double> Estimate(const CompactWmhSketch& a,
                                 const CompactWmhSketch& b) {
    return EstimateCompactWmhInnerProduct(a, b);
  }
  static constexpr const char* kCapacityUnit = "samples";
  static size_t Capacity(const CompactWmhSketch& s) { return s.num_samples(); }
  static CompactWmhSketch Truncated(const CompactWmhSketch& s, size_t m) {
    // Compact sketches are coordinate-wise, so prefix slicing is exact:
    // truncation commutes with quantization.
    return TruncatedCompactWmh(s, m);
  }
  static const auto& LshLane(const CompactWmhSketch& s) { return s.hashes; }
  static std::string Serialize(const CompactWmhSketch& s) {
    return SerializeCompactWmh(s);
  }
  static Result<CompactWmhSketch> Deserialize(std::string_view bytes) {
    return DeserializeCompactWmh(bytes);
  }
};

struct BbitWmhSpec {
  using Sketch = BbitWmhSketch;
  using Engine = QuantizingEngine<BbitWmhSpec>;
  WmhOptions concrete;
  uint32_t bits = 0;

  Result<Engine> MakeEngine() const { return Engine::Make(*this); }
  Status Quantize(const WmhSketch& full, BbitWmhSketch* out) const {
    return BbitFromWmh(full, bits, out);
  }

  Status Check(const BbitWmhSketch& s, uint64_t dimension) const {
    if (!HasIdentity(s, concrete, dimension) || s.bits != bits) {
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

  static Result<double> Estimate(const BbitWmhSketch& a,
                                 const BbitWmhSketch& b) {
    return EstimateBbitWmhInnerProduct(a, b);
  }
  static constexpr const char* kCapacityUnit = "samples";
  static size_t Capacity(const BbitWmhSketch& s) { return s.num_samples(); }
  static BbitWmhSketch Truncated(const BbitWmhSketch& s, size_t m) {
    return TruncatedBbitWmh(s, m);
  }
  static const auto& LshLane(const BbitWmhSketch& s) { return s.fingerprints; }
  static double ResidentWords(const BbitWmhSketch& s) {
    // Fingerprints live in uint32_t slots regardless of b, so the resident
    // footprint is one word per sample + the norm (the §5 accounting
    // charges only (b + 32)/64 per sample).
    return static_cast<double>(s.num_samples()) + 1.0;
  }
  static std::string Serialize(const BbitWmhSketch& s) {
    return SerializeBbitWmh(s);
  }
  static Result<BbitWmhSketch> Deserialize(std::string_view bytes) {
    return DeserializeBbitWmh(bytes);
  }
};

/// The family `info` names, built over its resolved options and Spec.
template <typename Spec>
Result<std::shared_ptr<const SketchFamily>> NewFamily(const FamilyInfo& info,
                                                      FamilyOptions resolved,
                                                      Spec spec) {
  return std::shared_ptr<const SketchFamily>(
      std::make_shared<TypedFamily<Spec>>(info, std::move(resolved),
                                          std::move(spec)));
}

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
  return NewFamily(info, std::move(options), WmhSpec{concrete});
}

Result<std::shared_ptr<const SketchFamily>> MakeWmhCompact(
    const FamilyInfo& info, FamilyOptions options) {
  IPS_RETURN_IF_ERROR(
      CheckKnownParams("wmh_compact", options, {"L", "engine"}));
  WmhOptions concrete;
  IPS_RETURN_IF_ERROR(ResolveWmhParams(&options, &concrete));
  return NewFamily(info, std::move(options), CompactWmhSpec{concrete});
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
  return NewFamily(info, std::move(options),
                   BbitWmhSpec{concrete, static_cast<uint32_t>(bits)});
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
  return NewFamily(info, std::move(options), IcwsSpec{concrete});
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
  return NewFamily(info, std::move(options), MhSpec{concrete});
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
  return NewFamily(info, std::move(options), KmvSpec{concrete});
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
  return NewFamily(info, std::move(options), CsSpec{concrete});
}

Result<std::shared_ptr<const SketchFamily>> MakeJl(const FamilyInfo& info,
                                                   FamilyOptions options) {
  IPS_RETURN_IF_ERROR(CheckKnownParams("jl", options, {}));
  JlOptions concrete;
  concrete.num_rows = options.num_samples;
  concrete.seed = options.seed;
  IPS_RETURN_IF_ERROR(concrete.Validate());
  return NewFamily(info, std::move(options), JlSpec{concrete});
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
  const auto* compact =
      dynamic_cast<const TypedFamily<CompactWmhSpec>*>(&target);
  const auto* bbit = dynamic_cast<const TypedFamily<BbitWmhSpec>*>(&target);
  if (compact == nullptr && bbit == nullptr) {
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
  auto out = compact != nullptr ? compact->QuantizeFrom(*typed)
                                : bbit->QuantizeFrom(*typed);
  IPS_RETURN_IF_ERROR(out.status());
  // The quantized sketch must land exactly on the target's resolved
  // identity — a full sketch built with different (m, seed, L, engine) is
  // rejected here, never silently relabeled.
  IPS_RETURN_IF_ERROR(target.CheckCompatible(*out.value()));
  return out;
}

}  // namespace ipsketch
