#include "service/sketch_store.h"

#include <algorithm>

#include "common/rng.h"

namespace ipsketch {

const AnySketch* ShardView::Find(uint64_t id) const {
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) return nullptr;
  return sketches[static_cast<size_t>(it - ids.begin())].get();
}

Status SketchStoreOptions::Validate() const {
  if (family.empty()) {
    return Status::InvalidArgument("store family name must be non-empty");
  }
  if (sketch.dimension == 0) {
    return Status::InvalidArgument("store dimension must be positive");
  }
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  return Status::Ok();
}

SketchStore::SketchStore(SketchStoreOptions options,
                         std::shared_ptr<const SketchFamily> family)
    : options_(std::move(options)), family_(std::move(family)) {
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    // Publish the empty epoch-0 view so PinShard never observes null.
    Shard& shard = *shards_.back();
    MutexLock pin(&shard.pin_mu);
    shard.view = std::make_shared<ShardView>();
  }
  auto& registry = metrics::MetricsRegistry::Global();
  inserts_ = &registry.GetCounter("ipsketch_store_inserts_total",
                                  "Sketches inserted (including replaces)");
  erases_ = &registry.GetCounter("ipsketch_store_erases_total",
                                 "Sketches erased");
  ingest_ns_ = &registry.GetHistogram(
      "ipsketch_store_ingest_ns",
      "Per-vector ingest latency: the sketch of one vector, on "
      "BuildAndInsert and each BuildAndInsertBatch entry alike (the insert "
      "is not timed)");
  size_gauge_ = &registry.GetGauge("ipsketch_store_size",
                                   "Live sketches across all stores");
  shard_occupancy_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    shard_occupancy_.push_back(&registry.GetGauge(
        "ipsketch_store_shard_occupancy{shard=\"" + std::to_string(i) + "\"}",
        "Live sketches per shard index (skew = max/mean across shards)"));
  }
}

void SketchStore::RetireOccupancy() {
  for (size_t s = 0; s < shards_.size(); ++s) {
    const int64_t n = static_cast<int64_t>(PinShard(s)->ids.size());
    if (n == 0) continue;
    size_gauge_->Add(-n);
    shard_occupancy_[s]->Add(-n);
  }
}

SketchStore::~SketchStore() { RetireOccupancy(); }

SketchStore& SketchStore::operator=(SketchStore&& other) noexcept {
  if (this != &other) {
    RetireOccupancy();
    options_ = std::move(other.options_);
    family_ = std::move(other.family_);
    shards_ = std::move(other.shards_);
    inserts_ = other.inserts_;
    erases_ = other.erases_;
    ingest_ns_ = other.ingest_ns_;
    size_gauge_ = other.size_gauge_;
    shard_occupancy_ = std::move(other.shard_occupancy_);
    // The header contract forbids moving while a listener is attached (the
    // listener points at the old store object); transfer anyway so the
    // fields stay coherent.
    listener_mu_ = std::move(other.listener_mu_);
    listener_ = other.listener_;
    other.listener_ = nullptr;
  }
  return *this;
}

Result<SketchStore> SketchStore::Make(const SketchStoreOptions& options) {
  IPS_RETURN_IF_ERROR(options.Validate());
  auto family = MakeFamily(options.family, options.sketch);
  IPS_RETURN_IF_ERROR(family.status());
  SketchStoreOptions resolved = options;
  // The family resolves option defaults (e.g. WMH's L); echo the resolved
  // identity back into the store options so every sketch — including ones
  // built by callers from options() — agrees on it, and so it survives
  // persistence verbatim.
  resolved.sketch = family.value()->options();
  return SketchStore(std::move(resolved), std::move(family).value());
}

void SketchStore::PublishLocked(Shard& shard, std::shared_ptr<ShardView> next) {
  next->epoch = ++shard.version;
  ShardViewPtr superseded = std::move(next);
  MutexLock pin(&shard.pin_mu);
  shard.view.swap(superseded);
}

ShardViewPtr SketchStore::PinShard(size_t shard) const {
  IPS_CHECK(shard < shards_.size());
  return shards_[shard]->Pin();
}

std::vector<ShardViewPtr> SketchStore::PinStore() const {
  std::vector<ShardViewPtr> views;
  views.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) views.push_back(PinShard(s));
  return views;
}

size_t SketchStore::ShardOf(uint64_t id) const {
  // Mix first: sequential ids would otherwise all land in shard id % N for
  // small N and defeat the sharding.
  return static_cast<size_t>(Mix64(id) % shards_.size());
}

size_t SketchStore::size() const {
  size_t total = 0;
  for (size_t s = 0; s < shards_.size(); ++s) total += PinShard(s)->ids.size();
  return total;
}

Status SketchStore::InsertBatch(
    std::vector<std::pair<uint64_t, std::unique_ptr<AnySketch>>> entries) {
  // Check everything before publishing anything.
  for (const auto& [id, sketch] : entries) {
    if (sketch == nullptr) {
      return Status::InvalidArgument("cannot insert a null sketch");
    }
    IPS_RETURN_IF_ERROR(family_->CheckCompatible(*sketch));
  }
  const size_t count = entries.size();
  ApplyWrites(std::move(entries));
  // Every entry counts, as if the batch had been inserted one by one.
  inserts_->Add(count);
  return Status::Ok();
}

size_t SketchStore::ApplyWrites(
    std::vector<std::pair<uint64_t, std::unique_ptr<AnySketch>>> writes) {
  struct Pending {
    size_t shard;
    uint64_t id;
    std::shared_ptr<const AnySketch> sketch;  // nullptr: erase
    size_t pos = 0;  // lower bound of `id` in the shard's current view
  };
  // Newest write first: after the stable sort by (shard, id), the first
  // write of each id is the one that wins.
  std::vector<Pending> pending;
  pending.reserve(writes.size());
  for (auto it = writes.rbegin(); it != writes.rend(); ++it) {
    pending.push_back({ShardOf(it->first), it->first, std::move(it->second)});
  }
  const auto by_shard_then_id = [](const Pending& a, const Pending& b) {
    return a.shard != b.shard ? a.shard < b.shard : a.id < b.id;
  };
  std::stable_sort(pending.begin(), pending.end(), by_shard_then_id);
  const auto same_id = [](const Pending& a, const Pending& b) {
    return a.id == b.id;
  };
  pending.erase(std::unique(pending.begin(), pending.end(), same_id),
                pending.end());

  size_t erased_total = 0;
  for (auto run = pending.begin(), run_end = run; run != pending.end();
       run = run_end) {
    while (run_end != pending.end() && run_end->shard == run->shard) ++run_end;
    const size_t shard_index = run->shard;
    Shard& shard = *shards_[shard_index];
    int64_t added = 0;   // new ids stored
    int64_t erased = 0;  // resident ids erased
    {
      MutexLock lock(&shard.mu);
      // Pinned until the last callback returns: the sketches this run
      // displaces live in it.
      const ShardViewPtr prev = shard.Pin();
      const std::vector<uint64_t>& ids = prev->ids;
      const auto resident = [&](const Pending& p) {
        return p.pos < ids.size() && ids[p.pos] == p.id;
      };
      bool changes = false;
      auto from = ids.begin();
      for (auto it = run; it != run_end; ++it) {
        from = std::lower_bound(from, ids.end(), it->id);
        it->pos = static_cast<size_t>(from - ids.begin());
        const bool stores = it->sketch != nullptr;
        const bool present = resident(*it);
        added += stores && !present;
        erased += !stores && present;
        changes |= stores || present;
      }
      if (!changes) continue;
      // Merge. Each untouched stretch of the current view is copied in
      // bulk, so a run of one copies exactly what a one-id splice would.
      auto next = std::make_shared<ShardView>();
      next->ids.reserve(ids.size() + static_cast<size_t>(added));
      next->sketches.reserve(ids.size() + static_cast<size_t>(added));
      size_t copied = 0;
      const auto copy_until = [&](size_t end) {
        next->ids.insert(next->ids.end(), ids.begin() + copied,
                         ids.begin() + end);
        next->sketches.insert(next->sketches.end(),
                              prev->sketches.begin() + copied,
                              prev->sketches.begin() + end);
      };
      for (auto it = run; it != run_end; ++it) {
        copy_until(it->pos);
        if (it->sketch != nullptr) {
          next->ids.push_back(it->id);
          next->sketches.push_back(it->sketch);
        }
        copied = it->pos + (resident(*it) ? 1 : 0);
      }
      copy_until(ids.size());
      PublishLocked(shard, std::move(next));
      if (shard.listener != nullptr) {
        for (auto it = run; it != run_end; ++it) {
          const AnySketch* displaced =
              resident(*it) ? prev->sketches[it->pos].get() : nullptr;
          if (it->sketch == nullptr && displaced == nullptr) continue;
          shard.listener->OnWrite(it->id, it->sketch.get(), displaced);
        }
      }
    }
    shard_occupancy_[shard_index]->Add(added - erased);
    size_gauge_->Add(added - erased);
    erased_total += static_cast<size_t>(erased);
  }
  return erased_total;
}

Status SketchStore::Insert(uint64_t id, std::unique_ptr<AnySketch> sketch) {
  std::vector<std::pair<uint64_t, std::unique_ptr<AnySketch>>> one;
  one.emplace_back(id, std::move(sketch));
  return InsertBatch(std::move(one));
}

Status SketchStore::BuildAndInsert(uint64_t id, const SparseVector& vec) {
  return BuildAndInsertBatch({{id, vec}}, /*pool=*/nullptr);
}

Status SketchStore::BuildAndInsertBatch(
    const std::vector<std::pair<uint64_t, SparseVector>>& batch,
    ThreadPool* pool) {
  std::vector<std::pair<uint64_t, std::unique_ptr<AnySketch>>> sketched(
      batch.size());
  // Sketches entries [begin, end) with one Sketcher (scratch reuse across
  // its vectors), stopping at the first error. Nothing is published here.
  const auto sketch_range = [&](size_t begin, size_t end) -> Status {
    auto made = family_->MakeSketcher();
    IPS_RETURN_IF_ERROR(made.status());
    for (size_t i = begin; i < end; ++i) {
      metrics::ScopedLatency ingest_timer(ingest_ns_);
      sketched[i] = {batch[i].first, family_->NewSketch()};
      IPS_RETURN_IF_ERROR(
          made.value()->Sketch(batch[i].second, sketched[i].second.get()));
    }
    return Status::Ok();
  };
  if (pool == nullptr || pool->num_threads() == 1 || batch.size() <= 1) {
    IPS_RETURN_IF_ERROR(sketch_range(0, batch.size()));
  } else {
    // Carve the batch into one contiguous chunk per worker, so sketching —
    // the expensive part — runs fully in parallel. Chunks share no state
    // except the first-error slot.
    const size_t chunks = std::min(batch.size(), pool->num_threads());
    const size_t per_chunk = (batch.size() + chunks - 1) / chunks;
    // kLeaf: taken only from chunk bodies, which hold nothing at that
    // point, and released below before InsertBatch takes a shard lock.
    Mutex error_mu;
    Status first_error;
    pool->ParallelFor(chunks, [&](size_t c) {
      const size_t begin = c * per_chunk;
      const Status st =
          sketch_range(begin, std::min(begin + per_chunk, batch.size()));
      if (st.ok()) return;
      MutexLock lock(&error_mu);
      if (first_error.ok()) first_error = st;
    });
    MutexLock lock(&error_mu);
    IPS_RETURN_IF_ERROR(first_error);
  }
  return InsertBatch(std::move(sketched));
}

bool SketchStore::Contains(uint64_t id) const {
  return PinShard(ShardOf(id))->Find(id) != nullptr;
}

Result<std::unique_ptr<AnySketch>> SketchStore::Lookup(uint64_t id) const {
  const ShardViewPtr view = PinShard(ShardOf(id));
  const AnySketch* sketch = view->Find(id);
  if (sketch == nullptr) {
    return Status::NotFound("no sketch stored under id " + std::to_string(id));
  }
  return sketch->Clone();
}

Status SketchStore::Erase(uint64_t id) {
  std::vector<std::pair<uint64_t, std::unique_ptr<AnySketch>>> one;
  one.emplace_back(id, nullptr);
  if (ApplyWrites(std::move(one)) == 0) {
    return Status::NotFound("no sketch stored under id " + std::to_string(id));
  }
  erases_->Add(1);
  return Status::Ok();
}

Status SketchStore::AttachListener(Listener* listener) {
  if (listener == nullptr) {
    return Status::InvalidArgument("cannot attach a null listener");
  }
  MutexLock attach_lock(&*listener_mu_);
  if (listener_ != nullptr) {
    return Status::FailedPrecondition(
        "a mutation listener is already attached");
  }
  listener_ = listener;
  // Publish + replay shard by shard under one lock hold each: once a
  // shard's mirror is set, every later write to that shard notifies, and
  // everything already resident is replayed now — exactly-once per entry.
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    shard->listener = listener;
    const ShardViewPtr view = shard->Pin();
    for (size_t i = 0; i < view->ids.size(); ++i) {
      listener->OnWrite(view->ids[i], view->sketches[i].get(), nullptr);
    }
  }
  return Status::Ok();
}

Status SketchStore::DetachListener(Listener* listener) {
  MutexLock attach_lock(&*listener_mu_);
  if (listener == nullptr || listener_ != listener) {
    return Status::InvalidArgument("listener is not the attached one");
  }
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    shard->listener = nullptr;
  }
  listener_ = nullptr;
  return Status::Ok();
}

std::vector<uint64_t> SketchStore::Ids() const {
  std::vector<uint64_t> out;
  for (const ShardViewPtr& view : PinStore()) {
    out.insert(out.end(), view->ids.begin(), view->ids.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

double SketchStore::TotalStorageWords() const {
  double total = 0.0;
  for (const ShardViewPtr& view : PinStore()) {
    for (const auto& sketch : view->sketches) {
      // Every stored sketch passed CheckCompatible on insert, so the
      // family-side cast cannot fail.
      total += family_->StorageWords(*sketch).value();
    }
  }
  return total;
}

double SketchStore::TotalResidentWords() const {
  double total = 0.0;
  for (const ShardViewPtr& view : PinStore()) {
    for (const auto& sketch : view->sketches) {
      total += family_->ResidentWords(*sketch).value();
    }
  }
  return total;
}

namespace {

/// Ok iff `family` is one of the quantized WMH encodings — identified by
/// storage class, so the check stays registry-driven.
Status CheckQuantizedTarget(const SketchFamily& family) {
  const StorageClass sc = family.storage_class();
  if (sc != StorageClass::kCompactSamplingWithNorm &&
      sc != StorageClass::kBbitSamplingWithNorm) {
    return Status::InvalidArgument(
        "target family '" + family.name() +
        "' is not a quantized WMH encoding (expected wmh_compact or "
        "wmh_bbit)");
  }
  return Status::Ok();
}

}  // namespace

Result<SketchStore> QuantizeStore(
    const SketchStore& source, const std::string& target_family,
    const std::map<std::string, std::string>& extra_params) {
  if (source.family().name() != "wmh") {
    return Status::FailedPrecondition(
        "QuantizeStore requires a full-precision 'wmh' store; the source "
        "holds '" +
        source.family().name() + "'");
  }
  SketchStoreOptions target_options = source.options();
  target_options.family = target_family;
  for (const auto& [key, value] : extra_params) {
    target_options.sketch.params[key] = value;
  }
  auto made = SketchStore::Make(target_options);
  IPS_RETURN_IF_ERROR(made.status());
  SketchStore out = std::move(made).value();
  IPS_RETURN_IF_ERROR(CheckQuantizedTarget(out.family()));
  // Equal shard counts put every id in the same shard index on both sides.
  // The source is read from pinned views only: no source shard lock is held
  // while InsertBatch takes a target one (both rank kStoreShard).
  std::vector<std::pair<uint64_t, std::unique_ptr<AnySketch>>> quantized;
  for (const ShardViewPtr& view : source.PinStore()) {
    for (size_t i = 0; i < view->ids.size(); ++i) {
      auto sketch = QuantizeWmhSketch(out.family(), *view->sketches[i]);
      IPS_RETURN_IF_ERROR(sketch.status());
      quantized.emplace_back(view->ids[i], std::move(sketch).value());
    }
  }
  IPS_RETURN_IF_ERROR(out.InsertBatch(std::move(quantized)));
  return out;
}

}  // namespace ipsketch
