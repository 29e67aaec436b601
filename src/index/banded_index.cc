#include "index/banded_index.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/rng.h"

namespace ipsketch {
namespace {

/// The salted key of one band: a Mix64 chain over the band's r collision
/// codes, seeded per band so the same run of codes files into different
/// buckets in different bands (and per store seed, so two stores never
/// share bucket geometry by accident).
uint64_t BandKey(const uint64_t* codes, size_t rows, size_t band,
                 uint64_t seed) {
  uint64_t h = Mix64(seed ^ static_cast<uint64_t>(band + 1));
  for (size_t i = 0; i < rows; ++i) h = Mix64(h ^ codes[i]);
  return h;
}

/// Swap-removes one occurrence of `id` from the bucket under `key`,
/// dropping the bucket entirely when it empties.
void EraseBucketEntry(
    std::unordered_map<uint64_t, std::vector<uint64_t>>* buckets,
    uint64_t key, uint64_t id) {
  auto it = buckets->find(key);
  IPS_CHECK(it != buckets->end());
  auto& ids = it->second;
  auto pos = std::find(ids.begin(), ids.end(), id);
  IPS_CHECK(pos != ids.end());
  *pos = ids.back();
  ids.pop_back();
  if (ids.empty()) buckets->erase(it);
}

}  // namespace

Status BandedLshParams::Validate(size_t num_samples) const {
  if (bands == 0 || rows == 0) {
    return Status::InvalidArgument("bands and rows must be positive");
  }
  if (bands > num_samples / rows) {
    return Status::InvalidArgument(
        "bands * rows (" + std::to_string(bands) + " * " +
        std::to_string(rows) + ") exceeds the family's num_samples (" +
        std::to_string(num_samples) + ")");
  }
  return Status::Ok();
}

BandedIndex::BandedIndex(SketchStore* store, const BandedLshParams& params)
    : store_(store),
      params_(params),
      key_seed_(store->options().sketch.seed) {
  shards_.reserve(store->num_shards());
  for (size_t i = 0; i < store->num_shards(); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  auto& registry = metrics::MetricsRegistry::Global();
  inserts_ = &registry.GetCounter("ipsketch_index_inserts_total",
                                  "Sketches filed into banded indexes");
  erases_ = &registry.GetCounter("ipsketch_index_erases_total",
                                 "Sketches removed from banded indexes");
  buckets_probed_ = &registry.GetCounter(
      "ipsketch_index_buckets_probed_total",
      "Non-empty band buckets hit by index probes");
  candidates_ = &registry.GetCounter(
      "ipsketch_index_candidates_total",
      "Deduped candidates re-ranked by index probes");
  size_gauge_ = &registry.GetGauge("ipsketch_index_size",
                                   "Live sketches across banded indexes");
}

Result<std::unique_ptr<BandedIndex>> BandedIndex::MakeAttached(
    SketchStore* store, const BandedLshParams& params) {
  IPS_CHECK(store != nullptr);
  const SketchFamily& family = store->family();
  if (!family.supports_banding()) {
    return Status::FailedPrecondition(
        "family '" + family.name() +
        "' does not support LSH banding (coordinates are not "
        "positionally coordinated samples)");
  }
  IPS_RETURN_IF_ERROR(params.Validate(family.options().num_samples));
  std::unique_ptr<BandedIndex> index(new BandedIndex(store, params));
  // Attach replays every resident sketch through OnInsert, so the index
  // comes back consistent with the store no matter when it is created.
  IPS_RETURN_IF_ERROR(store->AttachListener(index.get()));
  index->attached_ = true;
  return index;
}

BandedIndex::~BandedIndex() {
  if (attached_) {
    // Cannot fail: this index is the attached listener.
    store_->DetachListener(this);
  }
  const auto resident = static_cast<int64_t>(size());
  if (resident != 0) size_gauge_->Add(-resident);
}

size_t BandedIndex::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += shard->band_keys.size();
  }
  return total;
}

std::vector<uint64_t> BandedIndex::BandKeys(
    const std::vector<uint64_t>& codes) const {
  std::vector<uint64_t> keys;
  keys.reserve(params_.bands);
  for (size_t j = 0; j < params_.bands; ++j) {
    keys.push_back(
        BandKey(codes.data() + j * params_.rows, params_.rows, j, key_seed_));
  }
  return keys;
}

void BandedIndex::OnInsert(uint64_t id, const AnySketch& sketch) {
  // Every sketch reaching a listener already passed the store's
  // CheckCompatible, and the family supports banding (MakeAttached), so
  // this cannot fail. The keys are computed before taking the lock.
  std::vector<uint64_t> codes;
  IPS_CHECK(store_->family().AppendLshCodes(sketch, &codes).ok());
  std::vector<uint64_t> keys = BandKeys(codes);
  Shard& shard = *shards_[store_->ShardOf(id)];
  MutexLock lock(&shard.mu);
  // A replace re-files the id under its new keys.
  const bool replaced = RemoveLocked(shard, id);
  for (uint64_t key : keys) shard.buckets[key].push_back(id);
  shard.band_keys.emplace(id, std::move(keys));
  inserts_->Add(1);
  if (!replaced) size_gauge_->Add(1);
}

void BandedIndex::OnErase(uint64_t id) {
  Shard& shard = *shards_[store_->ShardOf(id)];
  MutexLock lock(&shard.mu);
  if (RemoveLocked(shard, id)) {
    erases_->Add(1);
    size_gauge_->Add(-1);
  }
}

bool BandedIndex::RemoveLocked(Shard& shard, uint64_t id) {
  auto it = shard.band_keys.find(id);
  if (it == shard.band_keys.end()) return false;
  for (uint64_t key : it->second) EraseBucketEntry(&shard.buckets, key, id);
  shard.band_keys.erase(it);
  return true;
}

Status BandedIndex::QueryBandKeys(const AnySketch& query,
                                  std::vector<uint64_t>* keys) const {
  std::vector<uint64_t> codes;
  IPS_RETURN_IF_ERROR(store_->family().AppendLshCodes(query, &codes));
  *keys = BandKeys(codes);
  return Status::Ok();
}

Status BandedIndex::ProbeShard(const AnySketch& query,
                               const std::vector<uint64_t>& keys,
                               size_t shard_index, TopKHeap* heap,
                               IndexProbeStats* stats) const {
  IPS_CHECK(shard_index < shards_.size());
  std::vector<uint64_t> candidates;
  uint64_t buckets_hit = 0;
  {
    const Shard& shard = *shards_[shard_index];
    MutexLock lock(&shard.mu);
    for (uint64_t key : keys) {
      auto it = shard.buckets.find(key);
      if (it == shard.buckets.end()) continue;
      ++buckets_hit;
      candidates.insert(candidates.end(), it->second.begin(), it->second.end());
    }
  }
  stats->buckets_probed += buckets_hit;
  buckets_probed_->Add(buckets_hit);
  if (candidates.empty()) return Status::Ok();
  // A sketch colliding in several bands appears once per collision; dedup
  // (outside the lock) before the much more expensive re-rank.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  const ShardViewPtr view = store_->PinShard(shard_index);
  IPS_RETURN_IF_ERROR(view->family->CheckCompatible(query));
  uint64_t scored = 0;
  for (uint64_t id : candidates) {
    const AnySketch* sketch = view->Find(id);
    if (sketch == nullptr) continue;  // erased since the probe
    auto est = view->family->Estimate(query, *sketch);
    IPS_RETURN_IF_ERROR(est.status());
    heap->Offer(static_cast<size_t>(id), est.value());
    ++scored;
  }
  stats->candidates += scored;
  candidates_->Add(scored);
  return Status::Ok();
}

}  // namespace ipsketch
