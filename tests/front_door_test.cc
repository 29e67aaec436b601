// FrontDoor: async results match the synchronous engine on both top-k
// policies, shedding and deadlines complete futures with the right codes,
// and destruction never leaves a future hanging.

#include "service/front_door.h"

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/synthetic.h"
#include "index/banded_index.h"
#include "service/metrics.h"
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

SketchStore MakePopulatedStore(size_t count = 40) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  for (uint64_t id = 0; id < count; ++id) {
    IPS_CHECK(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  return store;
}

// Parks the pool's only worker until `release` goes true, so everything
// submitted behind it queues deterministically at the front door.
void BlockPool(ThreadPool* pool, std::atomic<bool>* release) {
  IPS_CHECK(pool->Submit([release] {
    while (!release->load()) std::this_thread::yield();
  }));
}

TEST(FrontDoorTest, FuturesMatchSynchronousEngine) {
  SketchStore store = MakePopulatedStore();
  ThreadPool pool(2);
  FrontDoor door(&store, &pool);
  QueryEngine sync(&store);

  auto est_future = door.SubmitEstimate(3, 17);
  auto topk_future = door.SubmitTopK(RandomVector(777), 10);

  auto est = est_future.Take();
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  auto sync_est = sync.EstimateInnerProduct(3, 17);
  ASSERT_TRUE(sync_est.ok());
  EXPECT_EQ(est.value(), sync_est.value());

  auto hits = topk_future.Take();
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  auto sync_hits = sync.TopK(RandomVector(777), 10);
  ASSERT_TRUE(sync_hits.status().ok());
  ASSERT_EQ(hits.value().size(), sync_hits.value().size());
  for (size_t i = 0; i < hits.value().size(); ++i) {
    EXPECT_EQ(hits.value()[i].id, sync_hits.value()[i].id);
    EXPECT_EQ(hits.value()[i].estimate, sync_hits.value()[i].estimate);
  }
}

TEST(FrontDoorTest, CallbackFormDelivers) {
  SketchStore store = MakePopulatedStore();
  ThreadPool pool(2);
  FrontDoor door(&store, &pool);

  std::atomic<int> pending{3};
  std::atomic<bool> all_ok{true};
  door.SubmitEstimate(1, 2, [&](FrontDoor::EstimateResult r) {
    if (!r.ok()) all_ok.store(false);
    pending.fetch_sub(1);
  });
  door.SubmitTopK(RandomVector(5), 4, [&](FrontDoor::TopKResult r) {
    if (!r.ok() || r.value().size() != 4) all_ok.store(false);
    pending.fetch_sub(1);
  });
  door.SubmitTopK(RandomVector(6), 4, [&](FrontDoor::TopKResult r) {
    if (!r.ok() || r.value().size() != 4) all_ok.store(false);
    pending.fetch_sub(1);
  });
  while (pending.load() != 0) std::this_thread::yield();
  EXPECT_TRUE(all_ok.load());
}

TEST(FrontDoorTest, MissingIdsAndBadQueriesFailPerRequest) {
  SketchStore store = MakePopulatedStore(8);
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  BlockPool(&pool, &release);
  FrontDoor door(&store, &pool);

  // A raw query that cannot be sketched gets its own error slot, the
  // sketcher's status naming the dimension mismatch; a healthy request in
  // the same window still completes. Both queue behind the parked worker,
  // so one batch carries them.
  auto wide_future =
      door.SubmitTopK(SparseVector::MakeOrDie(kDim * 2, {{0, 1.0}}), 3);
  auto good_future = door.SubmitTopK(RandomVector(9), 3);
  release.store(true);
  auto wide = wide_future.Take();
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wide.status().message().find("dimension"), std::string::npos)
      << wide.status().ToString();
  EXPECT_TRUE(good_future.Take().ok());

  auto missing = door.SubmitEstimate(3, 99999).Take();
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(FrontDoorTest, ShedsOnFullQueueWithUnavailable) {
  SketchStore store = MakePopulatedStore(16);
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  BlockPool(&pool, &release);

  FrontDoorOptions opts;
  opts.max_queue_depth = 4;
  FrontDoor door(&store, &pool, opts);

  std::vector<FrontDoorFuture<std::vector<QueryHit>>> futures;
  for (int i = 0; i < 7; ++i) {
    futures.push_back(door.SubmitTopK(RandomVector(100 + i), 3));
  }
  // The worker is parked, so the last three found the 4-deep queue full and
  // were shed synchronously at submit.
  size_t shed = 0;
  for (size_t i = 4; i < futures.size(); ++i) {
    ASSERT_TRUE(futures[i].Ready());
    auto r = futures[i].Take();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    ++shed;
  }
  EXPECT_EQ(shed, 3u);

  release.store(true);
  for (size_t i = 0; i < 4; ++i) {
    auto r = futures[i].Take();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}

TEST(FrontDoorTest, DeadlineExpiresWhileQueued) {
  SketchStore store = MakePopulatedStore(16);
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  BlockPool(&pool, &release);

  FrontDoor door(&store, &pool);
  // 1 ns budget: certainly expired by the time the parked worker frees up.
  auto doomed = door.SubmitTopK(RandomVector(1), 3, /*deadline_ns=*/1);
  auto patient = door.SubmitTopK(RandomVector(2), 3);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  release.store(true);

  auto r = doomed.Take();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(patient.Take().ok());
}

// A budget past the steady clock's range saturates instead of wrapping to
// an expiry in the past: both request kinds still complete Ok.
TEST(FrontDoorTest, HugeRelativeDeadlineNeverExpires) {
  auto& expired = metrics::MetricsRegistry::Global().GetCounter(
      "ipsketch_frontdoor_deadline_expired_total",
      "Requests whose deadline passed while queued (DeadlineExceeded)");
  const uint64_t expired0 = expired.Value();

  SketchStore store = MakePopulatedStore(16);
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  BlockPool(&pool, &release);
  FrontDoor door(&store, &pool);
  constexpr uint64_t kForever = std::numeric_limits<uint64_t>::max();
  auto topk = door.SubmitTopK(RandomVector(1), 3, kForever);
  auto estimate = door.SubmitEstimate(1, 2, kForever);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  release.store(true);

  auto hits = topk.Take();
  EXPECT_TRUE(hits.ok()) << hits.status().ToString();
  auto value = estimate.Take();
  EXPECT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(expired.Value(), expired0);
}

TEST(FrontDoorTest, DestructionCompletesEveryInFlightFuture) {
  SketchStore store = MakePopulatedStore(16);
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  BlockPool(&pool, &release);

  std::vector<FrontDoorFuture<std::vector<QueryHit>>> futures;
  {
    FrontDoor door(&store, &pool);
    for (int i = 0; i < 8; ++i) {
      futures.push_back(door.SubmitTopK(RandomVector(200 + i), 3));
    }
    release.store(true);
    // ~FrontDoor: sheds what is still queued, drains what is executing.
  }
  for (auto& f : futures) {
    ASSERT_TRUE(f.Ready());  // the destructor may not leave futures hanging
    auto r = f.Take();
    EXPECT_TRUE(r.ok() || r.status().code() == StatusCode::kUnavailable)
        << r.status().ToString();
  }
}

TEST(FrontDoorTest, NullPoolDispatchesInline) {
  SketchStore store = MakePopulatedStore(16);
  FrontDoor door(&store, /*pool=*/nullptr);
  auto r = door.SubmitTopK(RandomVector(3), 5).Take();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().size(), 5u);
}

TEST(FrontDoorTest, BandedPolicyMatchesSyncEngineAndExactScores) {
  SketchStore store = MakePopulatedStore();
  auto index = BandedIndex::MakeAttached(&store, {/*bands=*/8, /*rows=*/2});
  ASSERT_TRUE(index.ok());
  ThreadPool pool(2);
  FrontDoor door(&store, &pool, {}, index.value().get(),
                 IndexPolicy::kBandedRerank);
  QueryEngine banded(&store, nullptr, index.value().get(),
                     IndexPolicy::kBandedRerank);
  QueryEngine exact(&store);

  for (uint64_t i = 0; i < 4; ++i) {
    // A stored vector as the query collides in every band, so each batch
    // returns at least its twin.
    const SparseVector query = RandomVector(i * 9);
    auto door_hits = door.SubmitTopK(query, 8).Take();
    ASSERT_TRUE(door_hits.ok());
    ASSERT_FALSE(door_hits.value().empty());
    auto sync_hits = banded.TopK(query, 8);
    ASSERT_TRUE(sync_hits.status().ok());
    ASSERT_EQ(door_hits.value().size(), sync_hits.value().size());
    auto all = exact.TopK(query, store.size());
    ASSERT_TRUE(all.status().ok());
    const std::vector<QueryHit> rows = SortedById(all.value());
    for (size_t j = 0; j < door_hits.value().size(); ++j) {
      const QueryHit& hit = door_hits.value()[j];
      EXPECT_EQ(hit.id, sync_hits.value()[j].id);
      EXPECT_EQ(hit.estimate, sync_hits.value()[j].estimate);
      // Ids are 0..count-1, so the id-sorted exact row is at index id.
      EXPECT_EQ(hit.estimate, rows[hit.id].estimate);
    }
  }
}

TEST(FrontDoorTest, CountersAccountForEveryOutcome) {
  auto& registry = metrics::MetricsRegistry::Global();
  auto& submitted = registry.GetCounter("ipsketch_frontdoor_submitted_total",
                                        "Requests submitted to the front door");
  auto& completed = registry.GetCounter(
      "ipsketch_frontdoor_completed_total",
      "Requests that executed to completion (answer or engine error)");
  auto& shed = registry.GetCounter(
      "ipsketch_frontdoor_shed_total",
      "Requests rejected with Unavailable (queue full or shutdown)");
  auto& expired = registry.GetCounter(
      "ipsketch_frontdoor_deadline_expired_total",
      "Requests whose deadline passed while queued (DeadlineExceeded)");
  auto& latency = registry.GetHistogram(
      "ipsketch_frontdoor_latency_ns",
      "Submit-to-completion latency of executed requests");
  const uint64_t submitted0 = submitted.Value();
  const uint64_t completed0 = completed.Value();
  const uint64_t shed0 = shed.Value();
  const uint64_t expired0 = expired.Value();
  const uint64_t latency0 = latency.Snapshot().count;

  SketchStore store = MakePopulatedStore(16);
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  BlockPool(&pool, &release);
  FrontDoorOptions opts;
  opts.max_queue_depth = 2;
  FrontDoor door(&store, &pool, opts);

  auto ok1 = door.SubmitTopK(RandomVector(1), 3);
  auto doomed = door.SubmitTopK(RandomVector(2), 3, /*deadline_ns=*/1);
  auto rejected = door.SubmitTopK(RandomVector(3), 3);  // queue full
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  release.store(true);
  ASSERT_TRUE(ok1.Take().ok());
  ASSERT_EQ(doomed.Take().status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_EQ(rejected.Take().status().code(), StatusCode::kUnavailable);
  // A raw query of the wrong dimension executes and fails to sketch: it
  // still completes once, counted and timed like any executed request.
  auto wide =
      door.SubmitTopK(SparseVector::MakeOrDie(kDim * 2, {{0, 1.0}}), 3);
  ASSERT_EQ(wide.Take().status().code(), StatusCode::kInvalidArgument);

  const uint64_t n_submitted = submitted.Value() - submitted0;
  const uint64_t n_completed = completed.Value() - completed0;
  const uint64_t n_shed = shed.Value() - shed0;
  const uint64_t n_expired = expired.Value() - expired0;
  EXPECT_EQ(n_submitted, 4u);
  EXPECT_EQ(n_completed, 2u);
  EXPECT_EQ(n_shed, 1u);
  EXPECT_EQ(n_expired, 1u);
  EXPECT_EQ(latency.Snapshot().count - latency0, 2u);
  // Every future above was taken, so nothing is in flight.
  EXPECT_EQ(n_submitted, n_completed + n_shed + n_expired);
}

TEST(FrontDoorTest, BatchMetricsMoveOncePerBatch) {
  auto& registry = metrics::MetricsRegistry::Global();
  auto& batch_size = registry.GetHistogram(
      "ipsketch_frontdoor_batch_size",
      "Requests coalesced per dispatched batch");
  auto& queue_wait = registry.GetHistogram(
      "ipsketch_frontdoor_queue_wait_ns",
      "Time from submit to batch pickup (admission-queue delay)");
  auto& queue_depth = registry.GetGauge(
      "ipsketch_frontdoor_queue_depth",
      "Requests waiting in the admission queue");
  const metrics::HistogramSnapshot batches0 = batch_size.Snapshot();
  const uint64_t waits0 = queue_wait.Snapshot().count;
  const int64_t depth0 = queue_depth.Value();

  SketchStore store = MakePopulatedStore(16);
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  BlockPool(&pool, &release);
  FrontDoor door(&store, &pool);
  // Every request queues behind the parked worker, so the one dispatch
  // loop then takes them in two batches: kMaxBatch, and the rest.
  constexpr size_t kRequests = FrontDoor::kMaxBatch + 8;
  std::vector<FrontDoorFuture<std::vector<QueryHit>>> futures;
  for (size_t i = 0; i < kRequests; ++i) {
    futures.push_back(door.SubmitTopK(RandomVector(300 + i), 3));
  }
  EXPECT_EQ(queue_depth.Value(), static_cast<int64_t>(kRequests));
  release.store(true);
  for (auto& future : futures) {
    auto r = future.Take();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  const metrics::HistogramSnapshot batches = batch_size.Snapshot();
  EXPECT_EQ(batches.count - batches0.count, 2u);
  EXPECT_EQ(batches.sum - batches0.sum, kRequests);
  EXPECT_EQ(queue_wait.Snapshot().count - waits0, kRequests);
  EXPECT_EQ(queue_depth.Value(), depth0);
}

}  // namespace
}  // namespace ipsketch
