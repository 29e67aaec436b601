// One polymorphic interface over every sketching method in the library.
//
// The paper's argument is comparative — Weighted MinHash against the linear
// sketches (JL, CountSketch) and the sampling sketches (MinHash, KMV) at the
// same storage budget — and production deployments keep swapping these
// families (Daliri et al. 2024). This header makes the family a runtime
// value: a `SketchFamily` bundles sketching, pairwise estimation, merging
// (where the family supports it), storage accounting, and type-tagged wire
// (de)serialization behind one vtable, and the string-keyed registry
// (`MakeFamily`) constructs any family from a common `FamilyOptions`. The
// service layer (service/sketch_store.h, service/query_engine.h,
// service/persistence.h) and the benchmark evaluators
// (sketch/estimator_registry.h) are both built on this interface, so a
// CountSketch store and a WMH store run through the same code.
//
// The interface has one implementation: family.cc's `TypedFamily<Spec>`
// template (with its one `Sketcher`, `TypedSketcher`), where a `Spec`
// struct holds only what differs between families — the sketch type, its
// sketching context, the resolved core options, the compatibility check,
// and the core functions over the type. Adding a family means adding a
// Spec, a `RegisteredFamilies()` row, a `Make*` option-resolution
// function, and a `FAMILY_ESTIMATOR_TU` entry in tools/lint_invariants.py.
//
// Registry keys: "wmh", "icws", "mh", "kmv", "cs", "jl", plus the compact
// catalog encodings "wmh_compact" (32-bit hash + float32 value) and
// "wmh_bbit" (b-bit fingerprint + float32 value, option `bits` in [1, 32]).
// The compact families sketch full-precision WMH internally and quantize as
// a post-pass, so their sketches are comparable with each other (same seed,
// L, engine) but never with full-precision "wmh" sketches.

#ifndef IPSKETCH_SKETCH_FAMILY_H_
#define IPSKETCH_SKETCH_FAMILY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sketch/storage.h"
#include "vector/sparse_vector.h"

namespace ipsketch {

namespace wire {
class BoundedReader;  // serialize.h
}  // namespace wire

/// A type-erased sketch. Concrete sketches (WmhSketch, CountSketch, ...)
/// travel through the family-generic service and evaluator layers inside
/// `TypedSketch<T>` wrappers; only the owning `SketchFamily` (and tests)
/// look inside.
class AnySketch {
 public:
  virtual ~AnySketch() = default;

  /// Deep copy with the same dynamic type.
  virtual std::unique_ptr<AnySketch> Clone() const = 0;
};

/// The concrete wrapper: an `AnySketch` holding a `T` by value.
template <typename T>
class TypedSketch final : public AnySketch {
 public:
  TypedSketch() = default;
  explicit TypedSketch(T sketch) : value(std::move(sketch)) {}

  std::unique_ptr<AnySketch> Clone() const override {
    return std::make_unique<TypedSketch<T>>(value);
  }

  T value;
};

/// The `T` inside `sketch`, or nullptr if `sketch` wraps a different type.
template <typename T>
const T* GetSketchAs(const AnySketch& sketch) {
  const auto* typed = dynamic_cast<const TypedSketch<T>*>(&sketch);
  return typed == nullptr ? nullptr : &typed->value;
}

/// Mutable variant of `GetSketchAs`.
template <typename T>
T* GetMutableSketchAs(AnySketch* sketch) {
  auto* typed = dynamic_cast<TypedSketch<T>*>(sketch);
  return typed == nullptr ? nullptr : &typed->value;
}

/// Family-agnostic sketching parameters. Each family parses these into its
/// concrete option struct (WmhOptions, CountSketchOptions, ...):
/// `num_samples` maps onto the family's budget knob (samples, rows, or total
/// counters), and family-specific extras ride in `params` as string
/// key/values (e.g. {"L", "4096"} for WMH, {"repetitions", "5"} for CS).
/// Unknown keys are an error, so a typo never silently configures nothing.
///
/// A family *resolves* the options it is constructed from: defaults are
/// materialized into `params` (e.g. WMH's L=0 becomes DefaultL(dimension)),
/// so `SketchFamily::options()` is a complete, comparable identity — the
/// store and the persistence layer compare resolved options field by field.
struct FamilyOptions {
  /// Logical dimension n of every vector this family sketches. Required
  /// (> 0): sketches of different dimensions are never comparable.
  uint64_t dimension = 0;
  /// The storage budget knob: samples m (sampling families), projection
  /// rows (JL), or total counters (CS).
  size_t num_samples = 128;
  /// Random seed; sketches are comparable only across equal seeds.
  uint64_t seed = 0;
  /// Family-specific extras; see each family's documentation. Sorted map so
  /// the wire encoding is deterministic.
  std::map<std::string, std::string> params;

  friend bool operator==(const FamilyOptions& a,
                         const FamilyOptions& b) = default;
};

/// Appends the wire encoding of `options` (used by service/persistence.cc
/// inside the store header).
void AppendFamilyOptions(std::string* out, const FamilyOptions& options);

/// Reads options previously written by `AppendFamilyOptions`. Only the
/// canonical encoding is accepted: param keys must be strictly increasing
/// (exactly what the sorted-map writer emits), so a hostile payload cannot
/// smuggle duplicate keys past the map insert (which would silently drop
/// all but the first and re-encode to different bytes).
Status ReadFamilyOptions(wire::BoundedReader* r, FamilyOptions* options);

/// Renders options as "dimension=512 num_samples=64 seed=42 L=4096 ..." for
/// error messages.
std::string FamilyOptionsToString(const FamilyOptions& options);

/// Static metadata about a registered family.
struct FamilyInfo {
  /// Registry key: "wmh", "icws", "mh", "kmv", "cs", "jl".
  std::string name;
  /// Plot/table display name: "WMH", "ICWS", "MH", "KMV", "CS", "JL".
  std::string display_name;
  /// Storage accounting class (§5); maps budgets in words to `num_samples`.
  StorageClass storage = StorageClass::kLinear;
  /// True iff S(a) ⊕ S(b) = S(a + b) is available (JL, CS, KMV).
  bool supports_merge = false;
  /// True iff a prefix of a larger sketch is a valid smaller sketch, which
  /// makes storage sweeps one sketching pass (everything except CS, whose
  /// bucket layout changes with the width).
  bool supports_truncation = false;
  /// True iff sample i of two comparable sketches collides exactly when the
  /// vectors agree on hash function i — the positional-coordination property
  /// MinHash-LSH banding needs (`AppendLshCodes` is implemented).
  /// Holds for the minwise samplers (wmh, icws, mh, wmh_compact, wmh_bbit);
  /// not for the linear sketches (cs, jl — coordinates are projections, not
  /// samples) nor kmv (bottom-k samples are order statistics of one hash,
  /// not positionally aligned).
  bool supports_banding = false;
};

/// A reusable per-thread sketching context (scratch buffers, validated
/// options). NOT thread-safe: concurrent ingest uses one Sketcher per
/// worker, all from the same family, which is safe because every engine is
/// deterministic in (seed, sample, block).
class Sketcher {
 public:
  virtual ~Sketcher() = default;

  /// Sketches `a` into `*out`, reusing its buffers' capacity. `*out` must
  /// have been created by the same family's `NewSketch` (InvalidArgument
  /// otherwise, as for a vector of the wrong dimension).
  virtual Status Sketch(const SparseVector& a, AnySketch* out) = 0;
};

/// One sketching method behind a uniform vtable. Instances are immutable
/// and thread-safe; they are created by `MakeFamily` with fully resolved
/// options and shared by reference (the store, its query engines, and the
/// persistence layer all point at one family object).
class SketchFamily {
 public:
  virtual ~SketchFamily() = default;

  /// Static metadata (name, storage class, capabilities).
  const FamilyInfo& info() const { return info_; }
  /// Registry key, e.g. "wmh".
  const std::string& name() const { return info_.name; }
  /// Display name, e.g. "WMH".
  const std::string& display_name() const { return info_.display_name; }
  /// Storage accounting class (§5).
  StorageClass storage_class() const { return info_.storage; }
  /// True iff `Merge` is implemented.
  bool supports_merge() const { return info_.supports_merge; }
  /// True iff `Truncate` is implemented.
  bool supports_truncation() const { return info_.supports_truncation; }
  /// True iff `AppendLshCodes` is implemented (see
  /// FamilyInfo::supports_banding).
  bool supports_banding() const { return info_.supports_banding; }
  /// The resolved options this family was constructed with.
  const FamilyOptions& options() const { return options_; }

  /// An empty sketch of this family's concrete type, ready for
  /// `Sketcher::Sketch`.
  virtual std::unique_ptr<AnySketch> NewSketch() const = 0;

  /// A fresh per-thread sketching context.
  virtual Result<std::unique_ptr<Sketcher>> MakeSketcher() const = 0;

  /// Ok iff `sketch` is of this family's type and was built with exactly
  /// this family's (num_samples, seed, dimension, extras) — the insert-time
  /// guard that keeps every sketch in a store mutually comparable.
  virtual Status CheckCompatible(const AnySketch& sketch) const = 0;

  /// Estimates ⟨q, s⟩ for every pair of a query q in `queries` and a stored
  /// sketch s in `stored`: `out[i * stored.size() + j]` receives
  /// ⟨queries[i], stored[j]⟩, row i holding query i's estimates.
  /// `out.size()` must be `queries.size() * stored.size()`. The sketches
  /// must be mutually comparable (equal parameters); they need not match
  /// this family's `options()` — e.g. truncated sketches estimate fine.
  ///
  /// This is the one scoring call: every served path (pairwise, exact
  /// scan, banded re-rank, FrontDoor) scores through it — a scan once per
  /// shard — and `Estimate` is its one-pair form, so all their estimates
  /// are bit-identical. Each sketch is type-checked once per call, not
  /// once per pair.
  ///
  /// Empty `queries` or `stored` write nothing and return Ok. Otherwise
  /// InvalidArgument if a sketch of either span is of another family, and
  /// the first failing pair's status (in stored-major order) if a pair
  /// fails to estimate; on error `out` holds unspecified values, so a
  /// caller that must know which query failed re-scores per query.
  virtual Status EstimateMany(std::span<const AnySketch* const> queries,
                              std::span<const AnySketch* const> stored,
                              std::span<double> out) const = 0;

  /// Estimates ⟨a, b⟩: `EstimateMany` over one query and one stored
  /// sketch. Allocates nothing.
  Result<double> Estimate(const AnySketch& a, const AnySketch& b) const {
    const AnySketch* query = &a;
    const AnySketch* stored = &b;
    double estimate = 0.0;
    IPS_RETURN_IF_ERROR(
        EstimateMany({&query, 1}, {&stored, 1}, {&estimate, 1}));
    return estimate;
  }

  /// A sketch of a + b from sketches of a and b, for families with
  /// `supports_merge()`; FailedPrecondition otherwise (WMH/ICWS/MH
  /// fundamentally cannot merge — see sketch/merge.h).
  virtual Result<std::unique_ptr<AnySketch>> Merge(const AnySketch& a,
                                                   const AnySketch& b) const;

  /// The first `m` samples as a valid m-sample sketch, for families with
  /// `supports_truncation()`; FailedPrecondition otherwise. OutOfRange if
  /// `m` is 0 or exceeds the sketch's sample count.
  virtual Result<std::unique_ptr<AnySketch>> Truncate(const AnySketch& sketch,
                                                      size_t m) const;

  /// Storage footprint of `sketch` in 64-bit words under the paper's §5
  /// accounting model.
  virtual Result<double> StorageWords(const AnySketch& sketch) const = 0;

  /// In-memory footprint of `sketch` in 64-bit words — the engineering
  /// truth, as opposed to the §5 *accounting* model (which charges 32 bits
  /// per stored hash even when the resident struct holds a 64-bit double).
  /// Defaults to StorageWords; families whose resident layout is wider than
  /// the accounting (WMH, ICWS, MH, KMV, wmh_bbit) override. This is the
  /// number the compact catalog families halve.
  virtual Result<double> ResidentWords(const AnySketch& sketch) const;

  /// Appends `sketch`'s per-sample LSH codes — one 64-bit code per sample,
  /// equal across two sketches exactly when the sample collides (matching
  /// minimum hash / fingerprint) — to `*out`. The banded index groups runs
  /// of r codes into band keys. For families with `supports_banding()`;
  /// FailedPrecondition otherwise. InvalidArgument unless `sketch` passes
  /// CheckCompatible.
  ///
  /// Empty-slot sentinels (a sample no entry hashed into) share one code,
  /// so near-empty sketches collide spuriously; the re-rank estimator
  /// scores such candidates correctly, they just cost a candidate.
  virtual Status AppendLshCodes(const AnySketch& sketch,
                                std::vector<uint64_t>* out) const;

  /// Type-tagged wire encoding (sketch/serialize.h); stable across runs.
  virtual Result<std::string> Serialize(const AnySketch& sketch) const = 0;

  /// Parses bytes produced by `Serialize`. InvalidArgument on malformed
  /// input or on a payload of a different family (the type tag is checked).
  /// Parse-only: callers that require compatibility with this family's
  /// options follow up with `CheckCompatible`.
  virtual Result<std::unique_ptr<AnySketch>> Deserialize(
      std::string_view bytes) const = 0;

 protected:
  SketchFamily(FamilyInfo info, FamilyOptions options)
      : info_(std::move(info)), options_(std::move(options)) {}

 private:
  FamilyInfo info_;
  FamilyOptions options_;
};

/// Metadata for every registered family, in the paper's plotting order
/// (JL, CS, MH, KMV, WMH) plus the ICWS extension and the two compact
/// catalog encodings (wmh_compact, wmh_bbit).
const std::vector<FamilyInfo>& RegisteredFamilies();

/// Metadata for one family; InvalidArgument for unknown names.
Result<FamilyInfo> GetFamilyInfo(const std::string& name);

/// Constructs the family registered under `name` with `options` resolved
/// and validated. InvalidArgument for unknown names, missing dimension,
/// out-of-range fields, or unrecognized `options.params` keys.
Result<std::shared_ptr<const SketchFamily>> MakeFamily(
    const std::string& name, const FamilyOptions& options);

/// Quantizes a full-precision WMH sketch into `target`'s compact concrete
/// type. `target` must be a family made from "wmh_compact" or "wmh_bbit"
/// (InvalidArgument otherwise), and `full` a WmhSketch whose (m, seed, L,
/// engine, dimension) match the target's options — the result is verified
/// with target.CheckCompatible, so a mismatched input is rejected, never
/// relabeled. This is the one-shot conversion the service layer's
/// QuantizeStore runs per stored sketch.
Result<std::unique_ptr<AnySketch>> QuantizeWmhSketch(
    const SketchFamily& target, const AnySketch& full);

}  // namespace ipsketch

#endif  // IPSKETCH_SKETCH_FAMILY_H_
