// The layer adapter: every call the benchmark makes into the service goes
// through this class, one small method per layer entry point. When a layer's
// public API changes (for example, store segments replacing the index's
// listener attach), the change lands in one function here and the workload
// code is untouched.

#ifndef SERVICEBENCH_CATALOG_H_
#define SERVICEBENCH_CATALOG_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/similarity_search.h"
#include "index/banded_index.h"
#include "service/front_door.h"
#include "service/query_engine.h"
#include "service/sketch_store.h"
#include "service/thread_pool.h"
#include "sketch/family.h"
#include "vector/sparse_vector.h"

namespace servicebench {

using ipsketch::AnySketch;
using ipsketch::Result;
using ipsketch::SparseVector;
using ipsketch::Status;

/// Every catalog is a 16-shard `wmh` store over this dimension; a banded
/// one is indexed at the documented (b, r) = (16, 8).
inline constexpr uint64_t kDimension = uint64_t{1} << 24;
inline constexpr const char* kFamily = "wmh";
inline constexpr size_t kNumShards = 16;
inline constexpr ipsketch::BandedLshParams kLsh{16, 8};

/// What varies between workloads' catalogs: sketch size, and whether a
/// banded index serves top-k.
struct CatalogOptions {
  size_t num_samples = 128;
  bool banded = false;
  uint64_t seed = 0;
};

using CorpusEntries = std::vector<std::pair<uint64_t, SparseVector>>;

/// One store plus its optional banded index, and the engines and front door
/// built over them.
class Catalog {
 public:
  /// Called between load chunks with the number of vectors loaded so far.
  /// Its time is excluded from the set-up time.
  using ChunkHook = std::function<void(Catalog&, size_t loaded)>;

  /// Set-up: SketchStore::Make, BuildAndInsertBatch of `corpus` on `pool`
  /// in `chunks` equal parts (`hook` runs after each), then index attach.
  /// `*setup_s` receives the set-up time without the hook calls.
  static Result<std::unique_ptr<Catalog>> Build(
      const CatalogOptions& options, const CorpusEntries& corpus,
      ipsketch::ThreadPool* pool, size_t chunks, const ChunkHook& hook,
      double* setup_s);

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // --- sketch ---------------------------------------------------------------
  const ipsketch::SketchFamily& family() const { return store_->family(); }
  std::unique_ptr<AnySketch> NewSketch() const { return family().NewSketch(); }
  std::unique_ptr<ipsketch::Sketcher> MakeSketcher() const;
  /// A sketcher for the same family at another sample count m.
  static std::unique_ptr<ipsketch::Sketcher> MakeSketcherAt(
      const CatalogOptions& options, size_t num_samples,
      std::shared_ptr<const ipsketch::SketchFamily>* family);
  Result<double> Estimate(const AnySketch& a, const AnySketch& b) const {
    return family().Estimate(a, b);
  }

  // --- store ----------------------------------------------------------------
  Status Insert(uint64_t id, std::unique_ptr<AnySketch> sketch) {
    return store_->Insert(id, std::move(sketch));
  }
  Result<std::unique_ptr<AnySketch>> Lookup(uint64_t id) const {
    return store_->Lookup(id);
  }
  size_t size() const { return store_->size(); }
  size_t num_shards() const { return store_->num_shards(); }
  double ResidentWordsPerSketch() const;

  // --- index ----------------------------------------------------------------
  bool banded() const { return index_ != nullptr; }
  Status BandKeys(const AnySketch& query, std::vector<uint64_t>* keys) const {
    return index_->QueryBandKeys(query, keys);
  }
  Status ProbeShard(const AnySketch& query, const std::vector<uint64_t>& keys,
                    size_t shard, ipsketch::TopKHeap* heap,
                    ipsketch::IndexProbeStats* stats) const {
    return index_->ProbeShard(query, keys, shard, heap, stats);
  }

  // --- engine ---------------------------------------------------------------
  /// The engine the front door runs: the catalog's policy over snapshot
  /// reads, fanned across `pool` (nullptr = serial).
  ipsketch::QueryEngine ServingEngine(ipsketch::ThreadPool* pool) const;
  /// The exact-scan reference engine (kExactScan, snapshot reads).
  ipsketch::QueryEngine ExactEngine(ipsketch::ThreadPool* pool) const;

  // --- front door -----------------------------------------------------------
  /// The served path: a FrontDoor over the store with the catalog's index
  /// policy, or the exact snapshot scan when `exact` (or no index).
  std::unique_ptr<ipsketch::FrontDoor> OpenFrontDoor(
      ipsketch::ThreadPool* pool, const ipsketch::FrontDoorOptions& options,
      bool exact = false) const;

  // --- persistence ----------------------------------------------------------
  Status Save(const std::string& path) const;
  /// Loads a saved catalog store (checked against this store's options).
  Result<std::unique_ptr<ipsketch::SketchStore>> Load(
      const std::string& path) const;

 private:
  explicit Catalog(std::unique_ptr<ipsketch::SketchStore> store)
      : store_(std::move(store)) {}

  ipsketch::IndexPolicy policy() const {
    return banded() ? ipsketch::IndexPolicy::kBandedRerank
                    : ipsketch::IndexPolicy::kExactScan;
  }

  std::unique_ptr<ipsketch::SketchStore> store_;
  // Declared after store_, so it is destroyed (and detaches) first.
  std::unique_ptr<ipsketch::BandedIndex> index_;
};

}  // namespace servicebench

#endif  // SERVICEBENCH_CATALOG_H_
