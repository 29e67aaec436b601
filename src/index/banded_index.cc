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
  bands_.reserve(params.bands);
  for (size_t j = 0; j < params.bands; ++j) {
    bands_.push_back(std::make_unique<Band>());
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
  const Band& band = *bands_.front();
  MutexLock lock(&band.mu);
  return band.postings.size();
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
  // Keys are computed before taking any lock. In each band, one hold of
  // its lock unfiles the id under the displaced sketch's key and files it
  // under the stored one's, so no probe of that band sees the id missing.
  const std::vector<uint64_t> stale = SketchKeys(displaced);
  const std::vector<uint64_t> keys = SketchKeys(stored);
  for (size_t j = 0; j < bands_.size(); ++j) {
    Band& band = *bands_[j];
    MutexLock lock(&band.mu);
    if (!stale.empty()) IPS_CHECK(band.postings.Erase(stale[j], id));
    if (!keys.empty()) band.postings.Insert(keys[j], id);
  }
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

BandCandidates BandedIndex::CollectCandidates(
    const std::vector<uint64_t>& keys) const {
  IPS_CHECK(keys.empty() || keys.size() == bands_.size());
  const size_t n = store_->num_shards();
  BandCandidates found;
  found.begin.assign(n + 1, 0);
  found.buckets.assign(n, 0);
  // Ask the cache for every band's home slot before walking any, so the b
  // misses overlap instead of queueing behind one another.
  for (size_t j = 0; j < keys.size(); ++j) {
    const Band& band = *bands_[j];
    MutexLock lock(&band.mu);
    band.postings.Prefetch(keys[j]);
  }
  // (store shard, id) of every posting the buckets hold, sized for the
  // one or two postings a band's bucket typically yields. A bucket counts
  // once per shard it yields ids for: counted[s] is the last band that
  // counted shard s.
  std::vector<std::pair<size_t, uint64_t>> filed;
  filed.reserve(2 * keys.size());
  std::vector<size_t> counted(n, keys.size());
  std::vector<uint64_t> bucket;
  bucket.reserve(2);
  for (size_t j = 0; j < keys.size(); ++j) {
    bucket.clear();
    {
      const Band& band = *bands_[j];
      MutexLock lock(&band.mu);
      band.postings.Append(keys[j], &bucket);
    }
    for (uint64_t id : bucket) {
      const size_t shard = store_->ShardOf(id);
      filed.emplace_back(shard, id);
      if (counted[shard] != j) {
        counted[shard] = j;
        ++found.buckets[shard];
      }
    }
  }
  // A sketch colliding in several bands is filed once per collision; dedup
  // before the much more expensive re-rank.
  std::sort(filed.begin(), filed.end());
  filed.erase(std::unique(filed.begin(), filed.end()), filed.end());
  found.ids.reserve(filed.size());
  for (const auto& [shard, id] : filed) {
    found.ids.push_back(id);
    ++found.begin[shard + 1];
  }
  for (size_t s = 0; s < n; ++s) found.begin[s + 1] += found.begin[s];
  return found;
}

Status BandedIndex::ScoreShard(const AnySketch& query,
                               const BandCandidates& found, size_t shard,
                               const ShardView& view, TopKHeap* heap,
                               IndexProbeStats* stats) const {
  stats->buckets_probed += found.buckets[shard];
  buckets_probed_->Add(found.buckets[shard]);
  // Keep the candidates the view still holds (an id erased since step one
  // drops out), then score them in one family call.
  const std::span<const uint64_t> group = found.Shard(shard);
  std::vector<uint64_t> ids;
  std::vector<const AnySketch*> sketches;
  ids.reserve(group.size());
  sketches.reserve(group.size());
  for (uint64_t id : group) {
    const AnySketch* sketch = view.Find(id);
    if (sketch == nullptr) continue;
    ids.push_back(id);
    sketches.push_back(sketch);
  }
  std::vector<double> estimates(ids.size());
  const AnySketch* q = &query;
  IPS_RETURN_IF_ERROR(
      store_->family().EstimateMany({&q, 1}, sketches, estimates));
  for (size_t i = 0; i < ids.size(); ++i) {
    heap->Offer(static_cast<size_t>(ids[i]), estimates[i]);
  }
  stats->candidates += ids.size();
  candidates_->Add(ids.size());
  return Status::Ok();
}

Status BandedIndex::ProbeShard(const AnySketch& query,
                               const std::vector<uint64_t>& keys,
                               size_t shard, TopKHeap* heap,
                               IndexProbeStats* stats) const {
  IPS_CHECK(shard < store_->num_shards());
  IPS_RETURN_IF_ERROR(store_->family().CheckCompatible(query));
  const BandCandidates found = CollectCandidates(keys);
  if (found.Shard(shard).empty()) return Status::Ok();
  return ScoreShard(query, found, shard, *store_->PinShard(shard), heap,
                    stats);
}

}  // namespace ipsketch
