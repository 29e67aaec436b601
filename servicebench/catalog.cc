#include "catalog.h"

#include <algorithm>
#include <chrono>

#include "service/persistence.h"

namespace servicebench {

using ipsketch::FrontDoor;
using ipsketch::QueryEngine;
using ipsketch::ReadMode;
using ipsketch::SketchStore;

namespace {

ipsketch::SketchStoreOptions StoreOptions(const CatalogOptions& options) {
  ipsketch::SketchStoreOptions out;
  out.family = kFamily;
  out.sketch.dimension = kDimension;
  out.sketch.num_samples = options.num_samples;
  out.sketch.seed = options.seed;
  out.num_shards = kNumShards;
  return out;
}

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

Result<std::unique_ptr<Catalog>> Catalog::Build(
    const CatalogOptions& options, const CorpusEntries& corpus,
    ipsketch::ThreadPool* pool, size_t chunks, const ChunkHook& hook,
    double* setup_s) {
  using Clock = std::chrono::steady_clock;
  Clock::duration elapsed{};
  auto made = [&] {
    const auto t0 = Clock::now();
    auto store = SketchStore::Make(StoreOptions(options));
    elapsed += Clock::now() - t0;
    return store;
  }();
  if (!made.ok()) return made.status();
  std::unique_ptr<Catalog> catalog(new Catalog(
      std::make_unique<SketchStore>(std::move(made).value())));

  chunks = std::max<size_t>(chunks, 1);
  size_t loaded = 0;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t end = corpus.size() * (c + 1) / chunks;
    // The batch API takes a whole vector, so only chunked loads copy.
    const CorpusEntries part =
        chunks == 1 ? CorpusEntries{}
                    : CorpusEntries(corpus.begin() + loaded,
                                    corpus.begin() + end);
    const auto t0 = Clock::now();
    Status st = catalog->store_->BuildAndInsertBatch(
        chunks == 1 ? corpus : part, pool);
    elapsed += Clock::now() - t0;
    if (!st.ok()) return st;
    loaded = end;
    if (hook) hook(*catalog, loaded);
  }

  if (options.banded) {
    const auto t0 = Clock::now();
    auto index =
        ipsketch::BandedIndex::MakeAttached(catalog->store_.get(), kLsh);
    elapsed += Clock::now() - t0;
    if (!index.ok()) return index.status();
    catalog->index_ = std::move(index).value();
  }
  *setup_s = Seconds(elapsed);
  return catalog;
}

std::unique_ptr<ipsketch::Sketcher> Catalog::MakeSketcher() const {
  auto made = family().MakeSketcher();
  IPS_CHECK(made.ok());
  return std::move(made).value();
}

std::unique_ptr<ipsketch::Sketcher> Catalog::MakeSketcherAt(
    const CatalogOptions& options, size_t num_samples,
    std::shared_ptr<const ipsketch::SketchFamily>* family) {
  ipsketch::FamilyOptions fo = StoreOptions(options).sketch;
  fo.num_samples = num_samples;
  auto made = ipsketch::MakeFamily(kFamily, fo);
  IPS_CHECK(made.ok());
  *family = std::move(made).value();
  auto sketcher = (*family)->MakeSketcher();
  IPS_CHECK(sketcher.ok());
  return std::move(sketcher).value();
}

double Catalog::ResidentWordsPerSketch() const {
  const size_t n = store_->size();
  return n == 0 ? 0.0 : store_->TotalResidentWords() / static_cast<double>(n);
}

QueryEngine Catalog::ServingEngine(ipsketch::ThreadPool* pool) const {
  QueryEngine engine(store_.get(), pool, index_.get(), policy());
  engine.set_read_mode(ReadMode::kSnapshot);
  return engine;
}

QueryEngine Catalog::ExactEngine(ipsketch::ThreadPool* pool) const {
  QueryEngine engine(store_.get(), pool);
  engine.set_read_mode(ReadMode::kSnapshot);
  return engine;
}

std::unique_ptr<FrontDoor> Catalog::OpenFrontDoor(
    ipsketch::ThreadPool* pool, const ipsketch::FrontDoorOptions& options,
    bool exact) const {
  if (exact || !banded()) {
    return std::make_unique<FrontDoor>(store_.get(), pool, options);
  }
  return std::make_unique<FrontDoor>(store_.get(), pool, options,
                                     index_.get(), policy());
}

Status Catalog::Save(const std::string& path) const {
  return ipsketch::SaveSketchStore(*store_, path);
}

Result<std::unique_ptr<SketchStore>> Catalog::Load(
    const std::string& path) const {
  auto loaded = ipsketch::LoadSketchStoreAs(path, store_->options());
  if (!loaded.ok()) return loaded.status();
  return std::make_unique<SketchStore>(std::move(loaded).value());
}

}  // namespace servicebench
