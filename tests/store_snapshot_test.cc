// Epoch-snapshot read path of SketchStore (PinShard / ShardView) and the
// batch top-k API that rides on it: copy-on-write publication semantics
// (one publication per insert, and per touched shard for a batch),
// RCU liveness of pinned views, the write listener's one-callback contract
// checked with a recording fake, pinned reads racing writers, and batch
// answers checked against an independent ranking.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/similarity_search.h"
#include "core/wmh_sketch.h"
#include "data/synthetic.h"
#include "service/query_engine.h"
#include "service/sketch_store.h"
#include "service/thread_pool.h"
#include "tests/store_test_util.h"

namespace ipsketch {
namespace {

constexpr uint64_t kDim = 512;

SketchStoreOptions SmallStoreOptions(const std::string& family = "wmh") {
  SketchStoreOptions opts;
  opts.family = family;
  opts.sketch.dimension = kDim;
  opts.sketch.num_samples = 64;
  opts.sketch.seed = 42;
  opts.num_shards = 8;
  return opts;
}

// A deterministic random sparse vector with ~24 non-zeros.
SparseVector RandomVector(uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<Entry> entries;
  for (uint64_t index : SampleDistinctIndices(kDim, 24, seed)) {
    entries.push_back({index, rng.NextUnit() * 2.0 - 1.0});
  }
  return SparseVector::MakeOrDie(kDim, std::move(entries));
}

SketchStore MakeStoreOrDie(const SketchStoreOptions& opts) {
  auto made = SketchStore::Make(opts);
  IPS_CHECK(made.ok());
  return std::move(made).value();
}

TEST(StoreSnapshotTest, EmptyStorePublishesEpochZeroViews) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  for (size_t s = 0; s < store.num_shards(); ++s) {
    ShardViewPtr view = store.PinShard(s);
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(view->epoch, 0u);
    EXPECT_TRUE(view->ids.empty());
    EXPECT_EQ(view->Find(123), nullptr);
  }
  EXPECT_EQ(store.PinStore().size(), store.num_shards());
}

TEST(StoreSnapshotTest, InsertPublishesSortedViewAndAdvancesEpoch) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  for (uint64_t id = 0; id < 64; ++id) {
    ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  size_t resident = 0;
  for (size_t s = 0; s < store.num_shards(); ++s) {
    ShardViewPtr view = store.PinShard(s);
    ASSERT_EQ(view->ids.size(), view->sketches.size());
    // One publication per insert into this shard.
    EXPECT_EQ(view->epoch, view->ids.size());
    for (size_t i = 0; i + 1 < view->ids.size(); ++i) {
      EXPECT_LT(view->ids[i], view->ids[i + 1]);
    }
    for (size_t i = 0; i < view->ids.size(); ++i) {
      EXPECT_EQ(store.ShardOf(view->ids[i]), s);
      EXPECT_EQ(view->Find(view->ids[i]), view->sketches[i].get());
    }
    resident += view->ids.size();
  }
  EXPECT_EQ(resident, 64u);
}

// Batch ingest publishes each shard it touches exactly once, however many
// of the batch's entries land there, and leaves every other shard's epoch
// alone — on the serial and the pooled path.
TEST(StoreSnapshotTest, BatchPublishesEachTouchedShardOnce) {
  ThreadPool pool(3);
  for (ThreadPool* path : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(path == nullptr ? "serial" : "pooled");
    SketchStore store = MakeStoreOrDie(SmallStoreOptions());
    for (uint64_t id = 0; id < 40; ++id) {
      ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
    }
    // New ids and replaces of resident ones, all in the even shards.
    std::vector<std::pair<uint64_t, SparseVector>> batch;
    std::vector<size_t> landed(store.num_shards(), 0);
    for (uint64_t id = 20; batch.size() < 30; ++id) {
      if (store.ShardOf(id) % 2 != 0) continue;
      batch.push_back({id, RandomVector(1000 + id)});
      ++landed[store.ShardOf(id)];
    }
    std::vector<uint64_t> before;
    for (const ShardViewPtr& view : store.PinStore()) {
      before.push_back(view->epoch);
    }

    ASSERT_TRUE(store.BuildAndInsertBatch(batch, path).ok());
    for (size_t s = 0; s < store.num_shards(); ++s) {
      EXPECT_EQ(store.PinShard(s)->epoch, before[s] + (landed[s] > 0 ? 1 : 0))
          << "shard " << s << " took " << landed[s] << " entries";
    }
    EXPECT_GT(*std::max_element(landed.begin(), landed.end()), 1u);
  }
}

TEST(StoreSnapshotTest, EraseAndReplacePublishSuccessorViews) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  ASSERT_TRUE(store.BuildAndInsert(7, RandomVector(1)).ok());
  const size_t s = store.ShardOf(7);
  ShardViewPtr v1 = store.PinShard(s);
  ASSERT_NE(v1->Find(7), nullptr);

  // Replace: new view holds a different sketch object under the same id.
  ASSERT_TRUE(store.BuildAndInsert(7, RandomVector(2)).ok());
  ShardViewPtr v2 = store.PinShard(s);
  EXPECT_GT(v2->epoch, v1->epoch);
  ASSERT_NE(v2->Find(7), nullptr);
  EXPECT_NE(v2->Find(7), v1->Find(7));
  EXPECT_EQ(v2->ids.size(), v1->ids.size());

  ASSERT_TRUE(store.Erase(7).ok());
  ShardViewPtr v3 = store.PinShard(s);
  EXPECT_GT(v3->epoch, v2->epoch);
  EXPECT_EQ(v3->Find(7), nullptr);
  // The pinned predecessors are immutable: they still serve the old epochs.
  EXPECT_NE(v1->Find(7), nullptr);
  EXPECT_NE(v2->Find(7), nullptr);
}

TEST(StoreSnapshotTest, PinnedViewKeepsSketchesAliveAcrossMutations) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  ASSERT_TRUE(store.BuildAndInsert(1, RandomVector(1)).ok());
  ASSERT_TRUE(store.BuildAndInsert(2, RandomVector(2)).ok());
  ShardViewPtr va = store.PinShard(store.ShardOf(1));
  ShardViewPtr vb = store.PinShard(store.ShardOf(2));
  const AnySketch* a = va->Find(1);
  const AnySketch* b = vb->Find(2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Erase both and churn the shards; the pinned epoch still estimates.
  ASSERT_TRUE(store.Erase(1).ok());
  ASSERT_TRUE(store.Erase(2).ok());
  for (uint64_t id = 100; id < 164; ++id) {
    ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  auto est = store.family().Estimate(*a, *b);
  ASSERT_TRUE(est.ok());
  auto direct = QueryEngine(&store).EstimateInnerProduct(1, 2);
  EXPECT_FALSE(direct.ok());  // gone from the live store...
  EXPECT_TRUE(std::isfinite(est.value()));  // ...but the pin still serves
}

// Records every OnWrite call together with what a PinShard of the id's
// shard, taken inside the callback, shows.
class RecordingListener : public SketchStore::Listener {
 public:
  struct Call {
    uint64_t id;
    const AnySketch* stored;
    const AnySketch* displaced;
    const AnySketch* pinned;  // the pinned view's sketch under `id`
    uint64_t epoch;           // the pinned view's epoch
    bool operator==(const Call&) const = default;
  };

  explicit RecordingListener(const SketchStore* store) : store_(store) {}

  void OnWrite(uint64_t id, const AnySketch* stored,
               const AnySketch* displaced) override {
    const ShardViewPtr view = store_->PinShard(store_->ShardOf(id));
    calls.push_back({id, stored, displaced, view->Find(id), view->epoch});
  }

  std::vector<Call> calls;

 private:
  const SketchStore* store_;
};

using Call = RecordingListener::Call;

TEST(StoreListenerTest, AttachReplaysEachResidentIdWithNothingDisplaced) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  for (uint64_t id = 0; id < 24; ++id) {
    ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  const std::vector<ShardViewPtr> views = store.PinStore();
  RecordingListener listener(&store);
  ASSERT_TRUE(store.AttachListener(&listener).ok());
  // Shard by shard, in id order, each resident sketch once.
  std::vector<Call> want;
  for (const ShardViewPtr& view : views) {
    for (size_t i = 0; i < view->ids.size(); ++i) {
      const AnySketch* sketch = view->sketches[i].get();
      want.push_back({view->ids[i], sketch, nullptr, sketch, view->epoch});
    }
  }
  EXPECT_EQ(listener.calls, want);
  ASSERT_TRUE(store.DetachListener(&listener).ok());
}

TEST(StoreListenerTest, NewReplaceAndEraseCarryStoredAndDisplaced) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  RecordingListener listener(&store);
  ASSERT_TRUE(store.AttachListener(&listener).ok());
  const size_t s = store.ShardOf(7);
  // Each pin keeps its epoch's sketch alive, so pointers stay unique.
  ASSERT_TRUE(store.BuildAndInsert(7, RandomVector(1)).ok());
  const ShardViewPtr v1 = store.PinShard(s);
  ASSERT_TRUE(store.BuildAndInsert(7, RandomVector(2)).ok());
  const ShardViewPtr v2 = store.PinShard(s);
  ASSERT_TRUE(store.Erase(7).ok());
  const ShardViewPtr v3 = store.PinShard(s);
  const std::vector<Call> want = {
      {7, v1->Find(7), nullptr, v1->Find(7), v1->epoch},      // new id
      {7, v2->Find(7), v1->Find(7), v2->Find(7), v2->epoch},  // replace
      {7, nullptr, v2->Find(7), nullptr, v3->epoch},          // erase
  };
  EXPECT_EQ(listener.calls, want);
  ASSERT_TRUE(store.DetachListener(&listener).ok());
}

// One InsertBatch delivers one callback per surviving id — the later entry
// of a repeated id wins — shard by shard in id order, each after its
// shard's one publication.
TEST(StoreListenerTest, BatchCallsOncePerSurvivingIdAfterItsShardPublishes) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  for (uint64_t id = 0; id < 20; ++id) {
    ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  RecordingListener listener(&store);
  ASSERT_TRUE(store.AttachListener(&listener).ok());
  listener.calls.clear();
  const std::vector<ShardViewPtr> before = store.PinStore();

  // New ids, replaces, and ids repeated within the batch.
  const std::vector<uint64_t> ids = {30, 5, 31, 5, 12, 30, 0, 19, 12, 40};
  auto sketcher = store.family().MakeSketcher().value();
  std::vector<std::pair<uint64_t, std::unique_ptr<AnySketch>>> entries;
  std::map<uint64_t, const AnySketch*> survivor;  // each id's last entry
  for (size_t i = 0; i < ids.size(); ++i) {
    auto sketch = store.family().NewSketch();
    ASSERT_TRUE(sketcher->Sketch(RandomVector(100 + i), sketch.get()).ok());
    survivor[ids[i]] = sketch.get();
    entries.emplace_back(ids[i], std::move(sketch));
  }
  ASSERT_TRUE(store.InsertBatch(std::move(entries)).ok());
  const std::vector<ShardViewPtr> after = store.PinStore();

  std::vector<Call> want;
  for (size_t s = 0; s < store.num_shards(); ++s) {
    for (const auto& [id, stored] : survivor) {
      if (store.ShardOf(id) != s) continue;
      EXPECT_EQ(after[s]->epoch, before[s]->epoch + 1) << "shard " << s;
      want.push_back(
          {id, stored, before[s]->Find(id), stored, after[s]->epoch});
    }
  }
  EXPECT_EQ(listener.calls, want);
  ASSERT_TRUE(store.DetachListener(&listener).ok());
}

// Writes that change nothing deliver nothing: an erase of an absent id,
// and a batch rejected for a null or an incompatible sketch.
TEST(StoreListenerTest, AbsentEraseAndRejectedBatchCallNothing) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  for (uint64_t id = 0; id < 8; ++id) {
    ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  RecordingListener listener(&store);
  ASSERT_TRUE(store.AttachListener(&listener).ok());
  listener.calls.clear();

  EXPECT_EQ(store.Erase(999).code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.Erase(3).ok());
  EXPECT_EQ(store.Erase(3).code(), StatusCode::kNotFound);
  ASSERT_EQ(listener.calls.size(), 1u);
  EXPECT_EQ(listener.calls[0].id, 3u);
  listener.calls.clear();

  // A sketch from an incompatible family identity (different seed).
  SketchStoreOptions other_opts = SmallStoreOptions();
  other_opts.sketch.seed = 4242;
  SketchStore other = MakeStoreOrDie(other_opts);
  ASSERT_TRUE(other.BuildAndInsert(0, RandomVector(0)).ok());
  for (const bool null_entry : {true, false}) {
    SCOPED_TRACE(null_entry ? "null sketch" : "incompatible sketch");
    std::vector<std::pair<uint64_t, std::unique_ptr<AnySketch>>> entries;
    entries.emplace_back(1, store.Lookup(2).value());
    entries.emplace_back(100, null_entry ? nullptr : other.Lookup(0).value());
    EXPECT_EQ(store.InsertBatch(std::move(entries)).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(listener.calls.empty());
  ASSERT_TRUE(store.DetachListener(&listener).ok());
}

TEST(StoreSnapshotTest, TopKSketchBatchMatchesSingleQueries) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  for (uint64_t id = 0; id < 40; ++id) {
    ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  QueryEngine engine(&store);

  auto sketcher = store.family().MakeSketcher();
  ASSERT_TRUE(sketcher.ok());
  std::vector<std::unique_ptr<AnySketch>> queries;
  for (int i = 0; i < 5; ++i) {
    auto sketch = store.family().NewSketch();
    ASSERT_TRUE(
        sketcher.value()->Sketch(RandomVector(500 + i), sketch.get()).ok());
    queries.push_back(std::move(sketch));
  }
  std::vector<const AnySketch*> query_ptrs;
  std::vector<size_t> ks;
  for (size_t i = 0; i < queries.size(); ++i) {
    query_ptrs.push_back(queries[i].get());
    ks.push_back(3 + i);  // mixed per-query k
  }
  auto batch = engine.TopKSketchBatch(query_ptrs, ks);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
    auto single = engine.TopKSketch(*queries[i], ks[i]);
    ASSERT_TRUE(single.status().ok());
    ASSERT_EQ(batch[i].value().size(), single.value().size());
    for (size_t j = 0; j < single.value().size(); ++j) {
      EXPECT_EQ(batch[i].value()[j].id, single.value()[j].id);
      EXPECT_EQ(batch[i].value()[j].estimate, single.value()[j].estimate);
    }

    // Single and batch share one traversal, so check the batch against a
    // reference that does not: the per-pair estimate of every stored
    // sketch, ranked by BetterHit and cut at k.
    auto all = PairwiseEstimates(store, *queries[i]);
    ASSERT_TRUE(all.status().ok());
    std::vector<SimilarityHit> ranked;
    for (const QueryHit& hit : all.value()) {
      ranked.push_back({static_cast<size_t>(hit.id), hit.estimate});
    }
    std::sort(ranked.begin(), ranked.end(), BetterHit);
    ranked.resize(std::min(ranked.size(), ks[i]));
    ASSERT_EQ(batch[i].value().size(), ranked.size());
    for (size_t j = 0; j < ranked.size(); ++j) {
      EXPECT_EQ(batch[i].value()[j].id, ranked[j].index);
      EXPECT_EQ(batch[i].value()[j].estimate, ranked[j].estimate);
    }
  }
}

TEST(StoreSnapshotTest, TopKSketchBatchIsolatesBadSlots) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  for (uint64_t id = 0; id < 16; ++id) {
    ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  QueryEngine engine(&store);

  auto good = store.Lookup(3);
  ASSERT_TRUE(good.ok());
  // A sketch from an incompatible family identity (different seed).
  SketchStoreOptions other_opts = SmallStoreOptions();
  other_opts.sketch.seed = 4242;
  SketchStore other = MakeStoreOrDie(other_opts);
  ASSERT_TRUE(other.BuildAndInsert(0, RandomVector(0)).ok());
  auto bad = other.Lookup(0);
  ASSERT_TRUE(bad.ok());

  std::vector<const AnySketch*> queries = {good.value().get(),
                                           bad.value().get(),
                                           good.value().get()};
  auto results = engine.TopKSketchBatch(queries, {5, 5, 5});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(results[2].ok());
  // The healthy slots are unaffected by the bad one.
  ASSERT_EQ(results[0].value().size(), 5u);
  EXPECT_EQ(results[0].value()[0].id, 3u);  // the stored copy of itself
}

// A query every pair of which fails to score — a compatible sketch, but an
// estimator error rather than a type error — fails only its own slot, on a
// serial and a pooled engine alike: the exact scan scores each shard in one
// family call, and the healthy queries still get exactly their
// single-query answers.
TEST(StoreSnapshotTest, TopKSketchBatchScoringErrorFailsOnlyItsQuery) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  for (uint64_t id = 0; id < 16; ++id) {
    ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  auto good_a = store.Lookup(3);
  auto good_b = store.Lookup(11);
  auto degenerate = store.Lookup(5);
  ASSERT_TRUE(good_a.ok() && good_b.ok() && degenerate.ok());
  // Every minimum hash 0.0: the sketch keeps its identity, so it passes
  // CheckCompatible, but its minimum-hash sum against any stored sketch is
  // 0 and every pair returns Internal.
  WmhSketch* zeroed = GetMutableSketchAs<WmhSketch>(degenerate.value().get());
  ASSERT_NE(zeroed, nullptr);
  std::fill(zeroed->hashes.begin(), zeroed->hashes.end(), 0.0);
  ASSERT_TRUE(store.family().CheckCompatible(*degenerate.value()).ok());

  const std::vector<const AnySketch*> queries = {
      good_a.value().get(), degenerate.value().get(), good_b.value().get()};
  ThreadPool pool(3);
  for (ThreadPool* engine_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    QueryEngine engine(&store, engine_pool);
    auto results = engine.TopKSketchBatch(queries, {5, 5, 5});
    ASSERT_EQ(results.size(), 3u);
    ASSERT_FALSE(results[1].ok());
    EXPECT_EQ(results[1].status().code(), StatusCode::kInternal)
        << results[1].status().ToString();
    for (size_t slot : {size_t{0}, size_t{2}}) {
      ASSERT_TRUE(results[slot].ok()) << results[slot].status().ToString();
      auto single = engine.TopKSketch(*queries[slot], 5);
      ASSERT_TRUE(single.ok());
      const std::vector<QueryHit>& batched = results[slot].value();
      ASSERT_EQ(batched.size(), single.value().size());
      for (size_t j = 0; j < batched.size(); ++j) {
        EXPECT_EQ(batched[j].id, single.value()[j].id);
        EXPECT_EQ(std::memcmp(&batched[j].estimate,
                              &single.value()[j].estimate, sizeof(double)),
                  0);
      }
    }
  }
}

// TSAN fodder: writers publish epochs while readers pin and estimate.
TEST(StoreSnapshotTest, ConcurrentIngestAndSnapshotReads) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  for (uint64_t id = 0; id < 16; ++id) {
    ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> read_errors{0};
  std::thread writer([&] {
    for (uint64_t round = 0; round < 40; ++round) {
      for (uint64_t id = 16; id < 32; ++id) {
        IPS_CHECK(store.BuildAndInsert(id, RandomVector(id + round)).ok());
      }
      for (uint64_t id = 16; id < 32; id += 2) {
        IPS_CHECK(store.Erase(id).ok());
      }
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      QueryEngine engine(&store);
      uint64_t last_epoch = 0;
      while (!stop.load()) {
        ShardViewPtr view = store.PinShard(static_cast<size_t>(t) %
                                           store.num_shards());
        if (view->epoch < last_epoch) read_errors.fetch_add(1);
        last_epoch = view->epoch;
        auto hits = engine.TopK(RandomVector(900 + t), 4);
        if (!hits.status().ok()) read_errors.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(read_errors.load(), 0);
}

}  // namespace
}  // namespace ipsketch
