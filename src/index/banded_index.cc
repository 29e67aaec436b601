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

}  // namespace

BandPostings::BandPostings() { Reset(kInitialCapacity); }

// Doubling keeps the capacity a power of two (for the mask) and a multiple
// of the 64-slot occupancy words.
static_assert(BandPostings::kInitialCapacity >= 64 &&
              (BandPostings::kInitialCapacity &
               (BandPostings::kInitialCapacity - 1)) == 0);

void BandPostings::Reset(size_t capacity) {
  slots_.assign(capacity, Posting{});
  occupied_.assign(capacity / 64, 0);
  mask_ = capacity - 1;
  size_ = 0;
}

void BandPostings::Place(const Posting& posting) {
  size_t slot = Home(posting.key);
  while (Occupied(slot)) slot = (slot + 1) & mask_;
  slots_[slot] = posting;
  occupied_[slot >> 6] |= uint64_t{1} << (slot & 63);
  ++size_;
}

void BandPostings::Insert(uint64_t key, uint64_t id) {
  if ((size_ + 1) * kMaxLoadDen > capacity() * kMaxLoadNum) {
    // Double and re-place every posting; the probe runs re-form around
    // the new mask.
    const BandPostings old = std::move(*this);
    Reset(old.capacity() * 2);
    for (size_t slot = 0; slot < old.capacity(); ++slot) {
      if (old.Occupied(slot)) Place(old.slots_[slot]);
    }
  }
  Place({key, id});
}

bool BandPostings::Erase(uint64_t key, uint64_t id) {
  size_t hole = Home(key);
  for (;; hole = (hole + 1) & mask_) {
    if (!Occupied(hole)) return false;
    if (slots_[hole].key == key && slots_[hole].id == id) break;
  }
  // Backward shift: walk the rest of the probe run and pull back into the
  // hole every posting whose home is not cyclically in (hole, slot] — one
  // that could not have been placed past the hole — so every posting stays
  // reachable from its home without tombstones.
  for (size_t slot = (hole + 1) & mask_; Occupied(slot);
       slot = (slot + 1) & mask_) {
    const size_t from_home = (slot - Home(slots_[slot].key)) & mask_;
    if (from_home >= ((slot - hole) & mask_)) {
      slots_[hole] = slots_[slot];
      hole = slot;
    }
  }
  occupied_[hole >> 6] &= ~(uint64_t{1} << (hole & 63));
  --size_;
  return true;
}

size_t BandPostings::Append(uint64_t key, std::vector<uint64_t>* ids) const {
  size_t found = 0;
  for (size_t slot = Home(key); Occupied(slot); slot = (slot + 1) & mask_) {
    if (slots_[slot].key != key) continue;
    ids->push_back(slots_[slot].id);
    ++found;
  }
  return found;
}

void BandPostings::Prefetch(uint64_t key) const {
  const size_t slot = Home(key);
  __builtin_prefetch(&occupied_[slot >> 6]);
  __builtin_prefetch(&slots_[slot]);
}

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
  // Attach replays every resident sketch through OnWrite, so the index
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
  size_t postings = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    postings += shard->postings.size();
  }
  // Every resident id is filed under exactly b keys.
  return postings / params_.bands;
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

std::vector<uint64_t> BandedIndex::SketchKeys(const AnySketch* sketch) const {
  std::vector<uint64_t> keys;
  if (sketch != nullptr) IPS_CHECK(QueryBandKeys(*sketch, &keys).ok());
  return keys;
}

void BandedIndex::OnWrite(uint64_t id, const AnySketch* stored,
                          const AnySketch* displaced) {
  // Keys are computed before taking the lock. The id is unfiled under the
  // displaced sketch's keys, then filed under the stored one's.
  const std::vector<uint64_t> stale = SketchKeys(displaced);
  const std::vector<uint64_t> keys = SketchKeys(stored);
  Shard& shard = *shards_[store_->ShardOf(id)];
  MutexLock lock(&shard.mu);
  for (uint64_t key : stale) IPS_CHECK(shard.postings.Erase(key, id));
  for (uint64_t key : keys) shard.postings.Insert(key, id);
  (stored != nullptr ? inserts_ : erases_)->Add(1);
  size_gauge_->Add(int64_t{stored != nullptr} - int64_t{displaced != nullptr});
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
  const SketchFamily& family = store_->family();
  IPS_RETURN_IF_ERROR(family.CheckCompatible(query));
  std::vector<uint64_t> candidates;
  uint64_t buckets_hit = 0;
  {
    const Shard& shard = *shards_[shard_index];
    MutexLock lock(&shard.mu);
    // Issue every home-slot load before walking any run, so the b cache
    // misses overlap instead of queueing behind one another.
    for (uint64_t key : keys) shard.postings.Prefetch(key);
    for (uint64_t key : keys) {
      if (shard.postings.Append(key, &candidates) != 0) ++buckets_hit;
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
  // Keep the candidates the view still holds (an id erased since the probe
  // drops out), then score them in one family call.
  std::vector<const AnySketch*> sketches;
  sketches.reserve(candidates.size());
  size_t scored = 0;
  for (uint64_t id : candidates) {
    const AnySketch* sketch = view->Find(id);
    if (sketch == nullptr) continue;
    candidates[scored++] = id;
    sketches.push_back(sketch);
  }
  std::vector<double> estimates(scored);
  const AnySketch* q = &query;
  IPS_RETURN_IF_ERROR(family.EstimateMany({&q, 1}, sketches, estimates));
  for (size_t i = 0; i < scored; ++i) {
    heap->Offer(static_cast<size_t>(candidates[i]), estimates[i]);
  }
  stats->candidates += scored;
  candidates_->Add(scored);
  return Status::Ok();
}

}  // namespace ipsketch
