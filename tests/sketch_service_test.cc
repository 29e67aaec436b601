#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/rounding.h"
#include "core/similarity_search.h"
#include "core/wmh_estimator.h"
#include "core/wmh_sketch.h"
#include "data/synthetic.h"
#include "index/banded_index.h"
#include "service/metrics.h"
#include "service/persistence.h"
#include "service/query_engine.h"
#include "service/sketch_store.h"
#include "service/thread_pool.h"
#include "sketch/count_sketch.h"

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

// The concrete WMH options a "wmh" store resolves to — used to rebuild
// store-compatible sketches through the core API for equivalence checks.
WmhOptions StoreWmhOptions(const SketchStore& store) {
  WmhOptions options;
  options.num_samples = store.options().sketch.num_samples;
  options.seed = store.options().sketch.seed;
  options.L = std::stoull(store.options().sketch.params.at("L"));
  return options;
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

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.ParallelFor(counts.size(), [&](size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, SubmittedTasksAllRun) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(pool.Submit([&] { ran.fetch_add(1); }));
    }
    // Destruction drains the queue before joining.
  }
  EXPECT_EQ(ran.load(), 100);
}

// Regression: ParallelFor called from inside a pool task used to deadlock —
// the worker blocked on completion while its subtasks waited in the queue
// behind it. Reentrant calls now run inline on the worker.
TEST(ThreadPoolTest, NestedParallelForFromWorkerRunsInline) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> counts(64);
  std::atomic<int> outer_done{0};
  ASSERT_TRUE(pool.Submit([&] {
    pool.ParallelFor(counts.size(), [&](size_t i) { counts[i].fetch_add(1); });
    outer_done.fetch_add(1);
  }));
  // Deeper nesting: ParallelFor bodies (which run on workers) calling
  // ParallelFor again.
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(counts.size(), [&](size_t i) { counts[i].fetch_add(1); });
  });
  pool.ParallelFor(0, [&](size_t) {});  // degenerate sizes stay safe
  // Quiesce the submitted task (destruction drains, but assert before).
  while (outer_done.load() == 0) std::this_thread::yield();
  for (const auto& c : counts) EXPECT_EQ(c.load(), 5);
}

// Regression: Submit used to IPS_CHECK-abort the process when a task still
// draining during destruction submitted follow-up work. It must reject
// (return false) instead, while every *accepted* task still runs.
TEST(ThreadPoolTest, SubmitDuringShutdownIsRejectedNotFatal) {
  std::atomic<bool> rejected{false};
  std::atomic<int> accepted_ran{0};
  {
    ThreadPool pool(1);
    ASSERT_TRUE(pool.Submit([&] {
      // Keep resubmitting until the destructor (running concurrently on
      // the main thread) flips the pool to stopping. Accepted follow-ups
      // are legitimate pre-stop work and must all run during the drain.
      while (pool.Submit([&] { accepted_ran.fetch_add(1); })) {
        std::this_thread::yield();
      }
      rejected.store(true);
    }));
    // Leaving the scope destroys the pool while the task above still runs.
  }
  EXPECT_TRUE(rejected.load());
  EXPECT_GE(accepted_ran.load(), 0);
}

// A pool mid-shutdown must still complete a ParallelFor instead of hanging
// on rejected submissions: the caller runs the iterations inline.
TEST(ThreadPoolTest, ParallelForDuringShutdownCompletesInline) {
  std::atomic<int> total{0};
  std::atomic<bool> parallel_for_done{false};
  std::thread caller;
  {
    ThreadPool pool(2);
    std::atomic<bool> draining{false};
    // This task pins one worker — and with it the destructor's join, so the
    // pool provably outlives the concurrent ParallelFor — until that
    // ParallelFor has completed. Its submissions race the stop flag: either
    // accepted (the second worker runs them) or rejected (the caller runs
    // the iterations inline); both must complete the loop.
    ASSERT_TRUE(pool.Submit([&] {
      draining.store(true);
      while (!parallel_for_done.load()) std::this_thread::yield();
    }));
    caller = std::thread([&] {
      while (!draining.load()) std::this_thread::yield();
      pool.ParallelFor(100, [&](size_t) { total.fetch_add(1); });
      parallel_for_done.store(true);
    });
    while (!draining.load()) std::this_thread::yield();
  }
  caller.join();
  EXPECT_TRUE(parallel_for_done.load());
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallsDoNotInterfere) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      pool.ParallelFor(100, [&](size_t) { total.fetch_add(1); });
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(total.load(), 400);
}

TEST(SketchStoreTest, ValidatesOptions) {
  SketchStoreOptions opts = SmallStoreOptions();
  opts.sketch.dimension = 0;
  EXPECT_FALSE(SketchStore::Make(opts).ok());
  opts = SmallStoreOptions();
  opts.num_shards = 0;
  EXPECT_FALSE(SketchStore::Make(opts).ok());
  opts = SmallStoreOptions();
  opts.sketch.num_samples = 0;
  EXPECT_FALSE(SketchStore::Make(opts).ok());
  opts = SmallStoreOptions();
  opts.family = "no_such_family";
  EXPECT_FALSE(SketchStore::Make(opts).ok());
  opts = SmallStoreOptions();
  opts.sketch.params["unknown_knob"] = "3";
  EXPECT_FALSE(SketchStore::Make(opts).ok());
}

TEST(SketchStoreTest, ResolvesDefaultLOnce) {
  auto store = SketchStore::Make(SmallStoreOptions()).value();
  EXPECT_EQ(store.options().sketch.params.at("L"),
            std::to_string(DefaultL(kDim)));
  EXPECT_EQ(StoreWmhOptions(store).L, DefaultL(kDim));
}

TEST(SketchStoreTest, InsertLookupEraseRoundTrip) {
  auto store = SketchStore::Make(SmallStoreOptions()).value();
  ASSERT_TRUE(store.BuildAndInsert(7, RandomVector(1)).ok());
  EXPECT_TRUE(store.Contains(7));
  EXPECT_FALSE(store.Contains(8));
  EXPECT_EQ(store.size(), 1u);

  auto sketch = store.Lookup(7);
  ASSERT_TRUE(sketch.ok());
  const WmhSketch* wmh = GetSketchAs<WmhSketch>(*sketch.value());
  ASSERT_NE(wmh, nullptr);
  EXPECT_EQ(wmh->num_samples(), 64u);
  EXPECT_EQ(store.Lookup(8).status().code(), StatusCode::kNotFound);

  EXPECT_TRUE(store.Erase(7).ok());
  EXPECT_FALSE(store.Contains(7));
  EXPECT_EQ(store.Erase(7).code(), StatusCode::kNotFound);
}

TEST(SketchStoreTest, RejectsIncompatibleSketchesAndVectors) {
  auto store = SketchStore::Make(SmallStoreOptions()).value();

  WmhOptions other = StoreWmhOptions(store);
  other.seed = 99;  // different seed → not comparable
  auto sketch = SketchWmh(RandomVector(1), other).value();
  EXPECT_EQ(store
                .Insert(1, std::make_unique<TypedSketch<WmhSketch>>(
                               std::move(sketch)))
                .code(),
            StatusCode::kInvalidArgument);

  // A sketch of a different family entirely.
  EXPECT_EQ(store.Insert(1, std::make_unique<TypedSketch<CountSketch>>())
                .code(),
            StatusCode::kInvalidArgument);

  const SparseVector wrong_dim =
      SparseVector::MakeOrDie(kDim * 2, {{3, 1.0}});
  EXPECT_EQ(store.BuildAndInsert(1, wrong_dim).code(),
            StatusCode::kInvalidArgument);
}

TEST(SketchStoreTest, BatchIngestMatchesSerialIngest) {
  std::vector<std::pair<uint64_t, SparseVector>> batch;
  for (uint64_t i = 0; i < 64; ++i) batch.push_back({i, RandomVector(i)});

  auto serial = SketchStore::Make(SmallStoreOptions()).value();
  ASSERT_TRUE(serial.BuildAndInsertBatch(batch, nullptr).ok());

  ThreadPool pool(4);
  auto parallel = SketchStore::Make(SmallStoreOptions()).value();
  ASSERT_TRUE(parallel.BuildAndInsertBatch(batch, &pool).ok());

  ASSERT_EQ(serial.size(), batch.size());
  ASSERT_EQ(parallel.size(), batch.size());
  // Engines are deterministic in (seed, sample, block), so parallel and
  // serial ingest must produce bit-identical sketches. Both stores shard
  // alike, so their views line up shard by shard.
  const auto a = serial.PinStore();
  const auto b = parallel.PinStore();
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s]->ids, b[s]->ids);
    for (size_t i = 0; i < a[s]->ids.size(); ++i) {
      const WmhSketch* sa = GetSketchAs<WmhSketch>(*a[s]->sketches[i]);
      const WmhSketch* sb = GetSketchAs<WmhSketch>(*b[s]->sketches[i]);
      ASSERT_NE(sa, nullptr);
      ASSERT_NE(sb, nullptr);
      EXPECT_EQ(sa->hashes, sb->hashes);
      EXPECT_EQ(sa->values, sb->values);
      EXPECT_EQ(sa->norm, sb->norm);
    }
  }
}

TEST(SketchStoreTest, DuplicateIdsLastWriteWins) {
  auto store = SketchStore::Make(SmallStoreOptions()).value();
  ASSERT_TRUE(store.BuildAndInsert(5, RandomVector(1)).ok());
  ASSERT_TRUE(store.BuildAndInsert(5, RandomVector(2)).ok());
  EXPECT_EQ(store.size(), 1u);
  const auto expected = SketchWmh(RandomVector(2), StoreWmhOptions(store));
  const auto looked_up = store.Lookup(5).value();
  const WmhSketch* wmh = GetSketchAs<WmhSketch>(*looked_up);
  ASSERT_NE(wmh, nullptr);
  EXPECT_EQ(wmh->hashes, expected.value().hashes);
}

TEST(SketchStoreTest, BatchDuplicateIdsLaterEntryWins) {
  // The parallel path sketches its two chunks concurrently, so the earlier
  // entry — slow to sketch — finishes last; it must still lose to the later
  // one, in the store and in the attached index.
  SketchStoreOptions opts = SmallStoreOptions();
  opts.sketch.dimension = uint64_t{1} << 16;
  auto store = SketchStore::Make(opts).value();
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok());
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 20000; ++i) {
    entries.push_back({100 + 3 * i, 1.0 + static_cast<double>(i % 7)});
  }
  const SparseVector earlier =
      SparseVector::MakeOrDie(opts.sketch.dimension, std::move(entries));
  const SparseVector later = SparseVector::MakeOrDie(
      opts.sketch.dimension, {{0, 1.0}, {1, -2.0}, {2, 0.5}});
  ThreadPool pool(2);
  ASSERT_TRUE(
      store.BuildAndInsertBatch({{5, earlier}, {5, later}}, &pool).ok());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(index.value()->size(), 1u);

  auto sketcher = store.family().MakeSketcher().value();
  auto later_sketch = store.family().NewSketch();
  auto earlier_sketch = store.family().NewSketch();
  ASSERT_TRUE(sketcher->Sketch(later, later_sketch.get()).ok());
  ASSERT_TRUE(sketcher->Sketch(earlier, earlier_sketch.get()).ok());
  const auto stored = store.Lookup(5).value();
  const WmhSketch* got = GetSketchAs<WmhSketch>(*stored);
  const WmhSketch* want = GetSketchAs<WmhSketch>(*later_sketch);
  ASSERT_NE(got, nullptr);
  ASSERT_NE(want, nullptr);
  EXPECT_EQ(got->hashes, want->hashes);
  EXPECT_EQ(got->values, want->values);
  EXPECT_EQ(got->norm, want->norm);

  // Id 5 is filed under every band key of the later sketch and under none
  // of the earlier one's (their supports are disjoint).
  const auto probe = [&](const AnySketch& query) {
    std::vector<uint64_t> keys;
    IPS_CHECK(index.value()->QueryBandKeys(query, &keys).ok());
    TopKHeap heap(10);
    IndexProbeStats stats;
    IPS_CHECK(index.value()
                  ->ProbeShard(query, keys, store.ShardOf(5), &heap, &stats)
                  .ok());
    return stats;
  };
  const IndexProbeStats on_later = probe(*later_sketch);
  EXPECT_EQ(on_later.buckets_probed, 16u);
  EXPECT_EQ(on_later.candidates, 1u);
  const IndexProbeStats on_earlier = probe(*earlier_sketch);
  EXPECT_EQ(on_earlier.buckets_probed, 0u);
  EXPECT_EQ(on_earlier.candidates, 0u);
}

// A batch is all or nothing. One entry that cannot be sketched (a vector of
// the wrong dimension) or cannot be inserted (a null sketch) leaves the
// store's size, every shard's epoch, the attached index and the insert
// counter as they were — on the serial and the pooled path alike, although
// the pooled path has finished sketching other chunks by then.
TEST(SketchStoreTest, FailingBatchInsertsNothing) {
  SketchStoreOptions opts = SmallStoreOptions();
  opts.sketch.dimension = 4096;
  const auto vector_of = [](uint64_t seed, uint64_t dimension) {
    std::vector<Entry> entries;
    for (uint64_t index : SampleDistinctIndices(dimension, 24, seed)) {
      entries.push_back({index, 1.0 + static_cast<double>(index % 5)});
    }
    return SparseVector::MakeOrDie(dimension, std::move(entries));
  };
  std::vector<std::pair<uint64_t, SparseVector>> batch;
  for (uint64_t i = 0; i < 10; ++i) {
    batch.push_back({i, vector_of(i, i == 5 ? 8192 : 4096)});
  }
  auto& inserts = metrics::MetricsRegistry::Global().GetCounter(
      "ipsketch_store_inserts_total");
  ThreadPool pool(2);
  for (ThreadPool* path : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(path == nullptr ? "serial" : "pooled");
    auto store = SketchStore::Make(opts).value();
    for (uint64_t id = 100; id < 104; ++id) {
      ASSERT_TRUE(store.BuildAndInsert(id, vector_of(id, 4096)).ok());
    }
    auto index = BandedIndex::MakeAttached(&store, {8, 4});
    ASSERT_TRUE(index.ok());
    const auto state = [&] {
      std::vector<uint64_t> epochs;
      for (const ShardViewPtr& view : store.PinStore()) {
        epochs.push_back(view->epoch);
      }
      return std::make_tuple(store.size(), epochs, index.value()->size(),
                             inserts.Value());
    };
    const auto before = state();

    EXPECT_EQ(store.BuildAndInsertBatch(batch, path).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(state(), before);

    std::vector<std::pair<uint64_t, std::unique_ptr<AnySketch>>> with_null;
    auto sketcher = store.family().MakeSketcher().value();
    for (uint64_t i = 0; i < 4; ++i) {
      auto sketch = store.family().NewSketch();
      ASSERT_TRUE(sketcher->Sketch(vector_of(i, 4096), sketch.get()).ok());
      with_null.emplace_back(i, i == 2 ? nullptr : std::move(sketch));
    }
    EXPECT_EQ(store.InsertBatch(std::move(with_null)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(state(), before);
  }
}

TEST(QueryEngineTest, EstimateInnerProductMatchesDirectEstimator) {
  auto store = SketchStore::Make(SmallStoreOptions()).value();
  ASSERT_TRUE(store.BuildAndInsert(1, RandomVector(1)).ok());
  ASSERT_TRUE(store.BuildAndInsert(2, RandomVector(2)).ok());

  QueryEngine engine(&store);
  // The service path must agree exactly with the core WMH estimator on
  // sketches built directly through the core API.
  const WmhOptions core_options = StoreWmhOptions(store);
  const auto direct = EstimateWmhInnerProduct(
      SketchWmh(RandomVector(1), core_options).value(),
      SketchWmh(RandomVector(2), core_options).value());
  EXPECT_EQ(engine.EstimateInnerProduct(1, 2).value(), direct.value());
  EXPECT_EQ(engine.EstimateInnerProduct(1, 99).status().code(),
            StatusCode::kNotFound);
}

TEST(QueryEngineTest, EstimateAgainstQueryCoversWholeStoreSortedById) {
  auto store = SketchStore::Make(SmallStoreOptions()).value();
  for (uint64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(store.BuildAndInsert(i * 3, RandomVector(i)).ok());
  }
  ThreadPool pool(4);
  QueryEngine engine(&store, &pool);
  const auto hits = engine.EstimateAgainstQuery(RandomVector(1000)).value();
  ASSERT_EQ(hits.size(), 40u);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].id, i * 3);
    if (i > 0) {
      EXPECT_LT(hits[i - 1].id, hits[i].id);
    }
  }
}

TEST(QueryEngineTest, ParallelTopKMatchesSerialTopK) {
  auto store = SketchStore::Make(SmallStoreOptions()).value();
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(store.BuildAndInsert(i, RandomVector(i)).ok());
  }
  const SparseVector query = RandomVector(5000);

  QueryEngine serial(&store, nullptr);
  ThreadPool pool(4);
  QueryEngine parallel(&store, &pool);

  for (size_t k : {1u, 7u, 50u, 500u}) {
    const auto a = serial.TopK(query, k).value();
    const auto b = parallel.TopK(query, k).value();
    ASSERT_EQ(a.size(), b.size()) << "k=" << k;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "k=" << k << " i=" << i;
      EXPECT_EQ(a[i].estimate, b[i].estimate);
    }
  }
}

TEST(QueryEngineTest, TopKRanksByEstimate) {
  auto store = SketchStore::Make(SmallStoreOptions()).value();
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.BuildAndInsert(i, RandomVector(i)).ok());
  }
  QueryEngine engine(&store);
  const SparseVector query = RandomVector(3);  // id 3 holds the same vector
  const auto hits = engine.TopK(query, 10).value();
  ASSERT_EQ(hits.size(), 10u);
  EXPECT_EQ(hits[0].id, 3u);  // self-similarity dominates
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].estimate, hits[i].estimate);
  }
  // Every estimate agrees with the full scan.
  const auto all = engine.EstimateAgainstQuery(query).value();
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.estimate, all[hit.id].estimate);
  }
}

TEST(QueryEngineTest, RejectsMismatchedQueries) {
  auto store = SketchStore::Make(SmallStoreOptions()).value();
  ASSERT_TRUE(store.BuildAndInsert(1, RandomVector(1)).ok());
  QueryEngine engine(&store);

  EXPECT_EQ(engine
                .TopK(SparseVector::MakeOrDie(kDim * 2, {{0, 1.0}}), 3)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  WmhOptions other = StoreWmhOptions(store);
  other.seed ^= 1;
  const TypedSketch<WmhSketch> foreign(
      SketchWmh(RandomVector(9), other).value());
  EXPECT_EQ(engine.TopKSketch(foreign, 3).status().code(),
            StatusCode::kInvalidArgument);

  // A query sketch of the wrong family is rejected, not mis-estimated.
  EXPECT_EQ(engine.TopKSketch(TypedSketch<CountSketch>(), 3).status().code(),
            StatusCode::kInvalidArgument);
}

// The same QueryEngine code serving a different family: a CountSketch store
// must produce exactly the estimates of the direct CountSketch estimator.
TEST(QueryEngineTest, CountSketchStoreMatchesDirectEstimator) {
  auto store = SketchStore::Make(SmallStoreOptions("cs")).value();
  for (uint64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(store.BuildAndInsert(i, RandomVector(i)).ok());
  }
  QueryEngine engine(&store);

  CountSketchOptions cs_options;
  cs_options.total_counters = store.options().sketch.num_samples;
  cs_options.seed = store.options().sketch.seed;
  const SparseVector query = RandomVector(900);
  const auto query_cs = SketchCount(query, cs_options).value();

  const auto hits = engine.EstimateAgainstQuery(query).value();
  ASSERT_EQ(hits.size(), 30u);
  for (const auto& hit : hits) {
    const auto direct = EstimateCountSketchInnerProduct(
        query_cs, SketchCount(RandomVector(hit.id), cs_options).value());
    EXPECT_EQ(hit.estimate, direct.value()) << "id " << hit.id;
  }
}

// Every registered family must work end to end through the generic store:
// ingest, point estimates, and top-k retrieval.
TEST(QueryEngineTest, AllFamiliesServeTopK) {
  for (const FamilyInfo& info : RegisteredFamilies()) {
    auto store = SketchStore::Make(SmallStoreOptions(info.name)).value();
    for (uint64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(store.BuildAndInsert(i, RandomVector(i)).ok())
          << info.name;
    }
    QueryEngine engine(&store);
    const auto hits = engine.TopK(RandomVector(7), 5).value();
    ASSERT_EQ(hits.size(), 5u) << info.name;
    // id 7 holds the query vector itself; self-similarity dominates for
    // every method at this sketch size.
    EXPECT_EQ(hits[0].id, 7u) << info.name;
  }
}

// --- compact catalogs --------------------------------------------------------

TEST(CompactCatalogTest, QuantizeStoreHalvesResidentStorage) {
  auto store = SketchStore::Make(SmallStoreOptions()).value();
  for (uint64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(store.BuildAndInsert(i, RandomVector(i)).ok());
  }
  const double full_resident = store.TotalResidentWords();
  const double full_storage = store.TotalStorageWords();
  std::vector<double> before;
  {
    QueryEngine engine(&store);
    for (uint64_t i = 1; i < 30; ++i) {
      before.push_back(engine.EstimateInnerProduct(0, i).value());
    }
  }

  // The in-place idiom: quiesce, then move-assign the quantized copy.
  store = QuantizeStore(store, "wmh_compact").value();
  EXPECT_EQ(store.family().name(), "wmh_compact");
  EXPECT_EQ(store.options().family, "wmh_compact");
  // The quantized family inherits the resolved identity of its source.
  EXPECT_EQ(store.options().sketch.params.at("engine"), "dart");
  EXPECT_EQ(store.size(), 30u);
  // The acceptance ratio: the resident catalog is at most 0.52× its
  // full-precision footprint (§5 accounting shrinks too: 1·m+1 words per
  // sketch instead of 1.5·m+1).
  EXPECT_LE(store.TotalResidentWords() / full_resident, 0.52);
  EXPECT_LT(store.TotalStorageWords(), full_storage);

  // Point and top-k estimates run unchanged through the family interface,
  // within quantization distance (float32 values, 32-bit hashes) of the
  // full-precision estimates.
  QueryEngine engine(&store);
  for (uint64_t i = 1; i < 30; ++i) {
    EXPECT_NEAR(engine.EstimateInnerProduct(0, i).value(), before[i - 1],
                1e-3)
        << "pair (0, " << i << ")";
  }
  const auto hits = engine.TopK(RandomVector(7), 5).value();
  ASSERT_EQ(hits.size(), 5u);
  EXPECT_EQ(hits[0].id, 7u);  // self-similarity survives quantization

  // A second quantization is refused: the store no longer holds "wmh".
  EXPECT_EQ(QuantizeStore(store, "wmh_compact").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CompactCatalogTest, QuantizeStoreKeepsSourceAndLayout) {
  auto source = SketchStore::Make(SmallStoreOptions()).value();
  for (uint64_t i = 0; i < 25; ++i) {
    ASSERT_TRUE(source.BuildAndInsert(i * 3, RandomVector(i)).ok());
  }
  auto& registry = metrics::MetricsRegistry::Global();
  auto& inserts = registry.GetCounter("ipsketch_store_inserts_total");
  auto& size_gauge = registry.GetGauge("ipsketch_store_size");
  const uint64_t inserts_before = inserts.Value();
  const int64_t size_before = size_gauge.Value();

  auto compact = QuantizeStore(source, "wmh_compact");
  ASSERT_TRUE(compact.ok()) << compact.status().ToString();
  // The source is untouched; the copy holds the same ids in the same
  // shards, each shard published once as a whole staged view.
  EXPECT_EQ(source.family().name(), "wmh");
  EXPECT_EQ(source.size(), 25u);
  EXPECT_EQ(compact.value().Ids(), source.Ids());
  for (size_t s = 0; s < source.num_shards(); ++s) {
    const ShardViewPtr view = compact.value().PinShard(s);
    EXPECT_EQ(view->ids, source.PinShard(s)->ids) << "shard " << s;
    EXPECT_EQ(view->epoch, 1u) << "shard " << s;
  }
  // Every quantized sketch still counts as an insert and a live sketch.
  EXPECT_EQ(inserts.Value(), inserts_before + 25);
  EXPECT_EQ(size_gauge.Value(), size_before + 25);
}

// A fixed full-precision catalog for the quantization byte pin below:
// hand-built WmhSketches of exactly representable doubles (no sketching,
// no libm), so the encoded bytes are the same on every platform.
SketchStore QuantizationFixture() {
  SketchStoreOptions opts;
  opts.family = "wmh";
  opts.sketch.dimension = 64;
  opts.sketch.num_samples = 4;
  opts.sketch.seed = 7;
  opts.sketch.params["L"] = "1024";
  opts.sketch.params["engine"] = "dart";
  opts.num_shards = 2;
  SketchStore store = SketchStore::Make(opts).value();
  for (uint64_t v = 0; v < 5; ++v) {
    WmhSketch wmh;
    wmh.seed = 7;
    wmh.L = 1024;
    wmh.dimension = 64;
    wmh.engine = WmhEngine::kDart;
    wmh.norm = 1.5 + static_cast<double>(v);
    for (uint64_t j = 0; j < 4; ++j) {
      wmh.hashes.push_back(static_cast<double>(v * 4 + j + 1) / 32.0);
      wmh.values.push_back((j % 2 == 0 ? 1.0 : -1.0) *
                           static_cast<double>(j + 1) / 8.0);
    }
    IPS_CHECK(store
                  .Insert(v * 3, std::make_unique<TypedSketch<WmhSketch>>(
                                     std::move(wmh)))
                  .ok());
  }
  return store;
}

// FNV-1a over a whole encoded store, trailer included.
uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Pins the encoded bytes of a quantized catalog. The expected sizes and
// hashes are what SketchStore::CompactifyInPlace — the in-place converter
// QuantizeStore replaced — encoded for this fixture, so the one remaining
// converter still produces those exact catalogs.
TEST(CompactCatalogTest, QuantizeStoreEncodesPinnedBytes) {
  struct Pin {
    const char* family;
    std::map<std::string, std::string> params;
    size_t size;
    uint64_t fnv;
  };
  const Pin pins[] = {
      {"wmh_compact", {}, 642, 0x3882a3ad9b3a39f8ull},
      {"wmh_bbit", {{"bits", "8"}}, 680, 0xb0ba42624742289dull},
  };
  const SketchStore source = QuantizationFixture();
  for (const Pin& pin : pins) {
    auto quantized = QuantizeStore(source, pin.family, pin.params);
    ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
    const std::string bytes = EncodeSketchStore(quantized.value());
    EXPECT_EQ(bytes.size(), pin.size) << pin.family;
    EXPECT_EQ(Fnv1a(bytes), pin.fnv) << pin.family;
  }
}

TEST(CompactCatalogTest, BbitCompactionShrinksAccountingFurther) {
  auto store = SketchStore::Make(SmallStoreOptions()).value();
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(store.BuildAndInsert(i, RandomVector(i)).ok());
  }
  const double full_storage = store.TotalStorageWords();
  store = QuantizeStore(store, "wmh_bbit", {{"bits", "8"}}).value();
  EXPECT_EQ(store.family().name(), "wmh_bbit");
  EXPECT_EQ(store.options().sketch.params.at("bits"), "8");
  // (8+32)/64 = 0.625 words/sample vs 1.5: under half the §5 accounting.
  EXPECT_LT(store.TotalStorageWords() / full_storage, 0.5);

  QueryEngine engine(&store);
  const auto hits = engine.TopK(RandomVector(3), 5).value();
  ASSERT_EQ(hits.size(), 5u);
  EXPECT_EQ(hits[0].id, 3u);
}

TEST(CompactCatalogTest, CompactionErrorPaths) {
  // A non-WMH store cannot be quantized.
  auto cs_store = SketchStore::Make(SmallStoreOptions("cs")).value();
  ASSERT_TRUE(cs_store.BuildAndInsert(1, RandomVector(1)).ok());
  EXPECT_EQ(QuantizeStore(cs_store, "wmh_compact").status().code(),
            StatusCode::kFailedPrecondition);

  // Targets must be quantized WMH encodings, and their params must parse.
  auto store = SketchStore::Make(SmallStoreOptions()).value();
  ASSERT_TRUE(store.BuildAndInsert(1, RandomVector(1)).ok());
  EXPECT_EQ(QuantizeStore(store, "wmh").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(QuantizeStore(store, "definitely_not_a_family").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(QuantizeStore(store, "wmh_bbit", {{"bits", "64"}}).status().code(),
            StatusCode::kInvalidArgument);
  // Every failure left the source unchanged.
  EXPECT_EQ(store.family().name(), "wmh");
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(QueryEngine(&store).EstimateInnerProduct(1, 1).ok());
}

TEST(CompactCatalogTest, InsertRejectsCrossEngineCompactSketch) {
  // The insert-time guard inherits the engine check: a compact catalog
  // resolved to one engine refuses sketches quantized from another.
  auto opts = SmallStoreOptions("wmh_compact");
  opts.sketch.params["engine"] = "active_index";
  auto store = SketchStore::Make(opts).value();

  FamilyOptions dart_options = store.options().sketch;
  dart_options.params["engine"] = "dart";
  auto dart_family = MakeFamily("wmh_compact", dart_options).value();
  auto sketch = dart_family->NewSketch();
  ASSERT_TRUE(dart_family->MakeSketcher()
                  .value()
                  ->Sketch(RandomVector(1), sketch.get())
                  .ok());
  EXPECT_EQ(store.Insert(1, std::move(sketch)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.size(), 0u);
}

// The satellite stress test: 8 writer threads ingest disjoint id ranges
// while 4 reader threads hammer TopK / lookups. Afterwards, nothing may be
// lost and a concurrent-pool TopK must match a from-scratch serial
// recompute.
TEST(SketchServiceStressTest, ConcurrentIngestAndQuery) {
  constexpr size_t kWriters = 8;
  constexpr size_t kReaders = 4;
  constexpr size_t kPerWriter = 40;

  auto store = SketchStore::Make(SmallStoreOptions()).value();
  ThreadPool pool(4);
  QueryEngine engine(&store, &pool);
  const SparseVector query = RandomVector(777);

  std::atomic<bool> stop{false};
  std::atomic<size_t> insert_failures{0};
  std::atomic<size_t> reader_errors{0};
  // Writers start only once every reader has finished a round, so each
  // reader is demonstrably live while ingest runs; otherwise fast writers
  // can finish before a reader thread is ever scheduled.
  std::atomic<size_t> readers_live{0};

  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      while (readers_live.load() < kReaders) std::this_thread::yield();
      for (size_t i = 0; i < kPerWriter; ++i) {
        const uint64_t id = w * kPerWriter + i;
        if (!store.BuildAndInsert(id, RandomVector(id)).ok()) {
          insert_failures.fetch_add(1);
        }
      }
    });
  }

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      size_t rounds = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Serial engines only inside reader threads: the shared pool is for
        // the final parallel checks (ParallelFor must not nest in workers).
        QueryEngine local(&store, nullptr);
        auto hits = local.TopK(query, 5);
        if (!hits.ok()) reader_errors.fetch_add(1);
        auto lookup = store.Lookup(r);  // may be NotFound early; not an error
        if (!lookup.ok() &&
            lookup.status().code() != StatusCode::kNotFound) {
          reader_errors.fetch_add(1);
        }
        if (++rounds == 1) readers_live.fetch_add(1);
      }
      EXPECT_GT(rounds, 0u);
    });
  }

  for (auto& w : writers) w.join();
  stop.store(true);
  for (auto& r : readers) r.join();

  // No lost inserts: every id present, exactly once.
  EXPECT_EQ(insert_failures.load(), 0u);
  EXPECT_EQ(reader_errors.load(), 0u);
  ASSERT_EQ(store.size(), kWriters * kPerWriter);
  const auto ids = store.Ids();
  ASSERT_EQ(ids.size(), kWriters * kPerWriter);
  for (size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);

  // Concurrent-pool TopK over the finished store matches a single-threaded
  // recompute done entirely from scratch via the core brute-force path on
  // concrete WmhSketches — the redesigned, family-generic engine must
  // return exactly what the pre-redesign WMH-only engine returned.
  const auto parallel_hits = engine.TopK(query, 10).value();
  const auto query_sketch =
      SketchWmh(query, StoreWmhOptions(store)).value();
  // Id order, so the brute-force tie-break (smaller index) agrees with the
  // engine's (smaller id).
  std::vector<std::pair<uint64_t, const AnySketch*>> entries;
  const auto views = store.PinStore();
  for (const auto& view : views) {
    for (size_t i = 0; i < view->ids.size(); ++i) {
      entries.emplace_back(view->ids[i], view->sketches[i].get());
    }
  }
  std::sort(entries.begin(), entries.end());
  std::vector<WmhSketch> all;
  std::vector<uint64_t> all_ids;
  for (const auto& [id, sketch] : entries) {
    const WmhSketch* wmh = GetSketchAs<WmhSketch>(*sketch);
    ASSERT_NE(wmh, nullptr);
    all_ids.push_back(id);
    all.push_back(*wmh);
  }
  const auto expected = TopKByInnerProduct(query_sketch, all, 10).value();
  ASSERT_EQ(parallel_hits.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(parallel_hits[i].id, all_ids[expected[i].index]);
    EXPECT_EQ(parallel_hits[i].estimate, expected[i].estimate);
  }
}

// --- service metrics integration -------------------------------------------
// Metrics are process-wide and monotonic, so these tests assert *deltas*
// around the operation under test, never absolute values.

TEST(ServiceMetricsTest, PoolRejectionIncrementsCounter) {
  auto& rejected = metrics::MetricsRegistry::Global().GetCounter(
      "ipsketch_pool_tasks_rejected_total");
  auto& executed = metrics::MetricsRegistry::Global().GetCounter(
      "ipsketch_pool_tasks_executed_total");
  const uint64_t rejected_before = rejected.Value();
  const uint64_t executed_before = executed.Value();
  std::atomic<bool> saw_rejection{false};
  {
    ThreadPool pool(1);
    ASSERT_TRUE(pool.Submit([&] {
      // As in SubmitDuringShutdownIsRejectedNotFatal: resubmit until the
      // destructor flips the pool to stopping and the submit is refused.
      while (pool.Submit([] {})) std::this_thread::yield();
      saw_rejection.store(true);
    }));
  }
  EXPECT_TRUE(saw_rejection.load());
  EXPECT_GE(rejected.Value(), rejected_before + 1);
  EXPECT_GE(executed.Value(), executed_before + 1);
}

// Each pool task moves the queue-depth gauge up at submit and back down at
// dequeue, and adds one wait sample, one run sample and one executed count:
// the inputs of the service benchmark's pool.task_wait_p99_us and
// pool.busy_frac.
TEST(ServiceMetricsTest, PoolMetricsMoveOncePerTask) {
  auto& registry = metrics::MetricsRegistry::Global();
  auto& depth = registry.GetGauge("ipsketch_pool_queue_depth");
  auto& wait = registry.GetHistogram("ipsketch_pool_task_wait_ns");
  auto& run = registry.GetHistogram("ipsketch_pool_task_run_ns");
  auto& executed = registry.GetCounter("ipsketch_pool_tasks_executed_total");
  const int64_t depth0 = depth.Value();
  const uint64_t waits0 = wait.Count();
  const uint64_t runs0 = run.Count();
  const uint64_t executed0 = executed.Value();

  constexpr size_t kTasks = 5;
  std::atomic<size_t> ran{0};
  {
    ThreadPool pool(1);
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    EXPECT_TRUE(pool.Submit([&] {
      started.store(true);
      while (!release.load()) std::this_thread::yield();
    }));
    // Once the blocker runs it has left the queue: only the tasks below
    // wait there.
    while (!started.load()) std::this_thread::yield();
    EXPECT_EQ(depth.Value(), depth0);
    for (size_t i = 0; i < kTasks; ++i) {
      EXPECT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
    }
    EXPECT_EQ(depth.Value(), depth0 + static_cast<int64_t>(kTasks));
    release.store(true);
    // ~ThreadPool drains the queue and joins the worker.
  }
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(wait.Count(), waits0 + kTasks + 1);
  EXPECT_EQ(run.Count(), runs0 + kTasks + 1);
  EXPECT_EQ(executed.Value(), executed0 + kTasks + 1);
  EXPECT_EQ(depth.Value(), depth0);
}

// A new id moves the store size gauge and its own shard's occupancy gauge
// by one and no other shard's; a replace is an insert but moves neither.
TEST(ServiceMetricsTest, StoreOccupancyGaugesTrackLiveSketches) {
  auto& registry = metrics::MetricsRegistry::Global();
  auto& size_gauge = registry.GetGauge("ipsketch_store_size");
  auto& inserts = registry.GetCounter("ipsketch_store_inserts_total");
  const auto occupancy = [&](size_t s) {
    return registry
        .GetGauge("ipsketch_store_shard_occupancy{shard=\"" +
                  std::to_string(s) + "\"}")
        .Value();
  };
  const int64_t size_before = size_gauge.Value();
  const uint64_t inserts_before = inserts.Value();
  {
    auto store = SketchStore::Make(SmallStoreOptions()).value();
    const auto insert = [&](uint64_t id, uint64_t seed, int64_t moved) {
      SCOPED_TRACE("id " + std::to_string(id));
      std::vector<int64_t> occupied;
      for (size_t s = 0; s < store.num_shards(); ++s) {
        occupied.push_back(occupancy(s));
      }
      const int64_t size = size_gauge.Value();
      ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(seed)).ok());
      EXPECT_EQ(size_gauge.Value(), size + moved);
      for (size_t s = 0; s < store.num_shards(); ++s) {
        EXPECT_EQ(occupancy(s),
                  occupied[s] + (s == store.ShardOf(id) ? moved : 0))
            << "shard " << s;
      }
    };
    for (uint64_t id = 0; id < 12; ++id) insert(id, id, 1);
    insert(3, 99, 0);
    EXPECT_EQ(size_gauge.Value(), size_before + 12);
    EXPECT_EQ(inserts.Value(), inserts_before + 13);

    ASSERT_TRUE(store.Erase(5).ok());
    EXPECT_EQ(size_gauge.Value(), size_before + 11);
  }
  // Destruction retires the store's whole occupancy contribution.
  EXPECT_EQ(size_gauge.Value(), size_before);
}

// Each write-path call moves the ingest histogram and the erase counter by
// exactly its own work: one ingest sample per vector sketched, timing that
// sketch alone on BuildAndInsert and BuildAndInsertBatch alike, none for a
// pre-built Insert, and one erase per id actually removed. An erase moves
// the size gauge and its own shard's occupancy gauge by one and publishes
// only its own shard; a NotFound erase moves and publishes nothing.
TEST(ServiceMetricsTest, WritePathMetricsMoveOncePerCall) {
  auto& registry = metrics::MetricsRegistry::Global();
  auto& ingest = registry.GetHistogram("ipsketch_store_ingest_ns");
  auto& erases = registry.GetCounter("ipsketch_store_erases_total");
  auto store = SketchStore::Make(SmallStoreOptions()).value();
  ThreadPool pool(2);

  uint64_t samples = ingest.Count();
  ASSERT_TRUE(store.BuildAndInsert(1, RandomVector(1)).ok());
  EXPECT_EQ(ingest.Count(), samples + 1);

  for (ThreadPool* path : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::vector<std::pair<uint64_t, SparseVector>> batch;
    for (uint64_t i = 0; i < 9; ++i) {
      batch.push_back({10 + i, RandomVector(10 + i)});
    }
    samples = ingest.Count();
    ASSERT_TRUE(store.BuildAndInsertBatch(batch, path).ok());
    EXPECT_EQ(ingest.Count(), samples + batch.size())
        << (path == nullptr ? "serial" : "pooled");
  }

  auto sketcher = store.family().MakeSketcher().value();
  auto sketch = store.family().NewSketch();
  ASSERT_TRUE(sketcher->Sketch(RandomVector(2), sketch.get()).ok());
  samples = ingest.Count();
  ASSERT_TRUE(store.Insert(2, std::move(sketch)).ok());
  EXPECT_EQ(ingest.Count(), samples);

  auto& size_gauge = registry.GetGauge("ipsketch_store_size");
  const auto occupancy = [&](size_t s) {
    return registry
        .GetGauge("ipsketch_store_shard_occupancy{shard=\"" +
                  std::to_string(s) + "\"}")
        .Value();
  };
  for (const bool present : {true, false}) {
    SCOPED_TRACE(present ? "present" : "absent");
    const std::vector<ShardViewPtr> views = store.PinStore();
    std::vector<int64_t> occupied;
    for (size_t s = 0; s < store.num_shards(); ++s) {
      occupied.push_back(occupancy(s));
    }
    const uint64_t erased = erases.Value();
    const int64_t size = size_gauge.Value();
    EXPECT_EQ(store.Erase(2).code(),
              present ? StatusCode::kOk : StatusCode::kNotFound);
    const int64_t moved = present ? 1 : 0;
    EXPECT_EQ(erases.Value(), erased + moved);
    EXPECT_EQ(size_gauge.Value(), size - moved);
    for (size_t s = 0; s < store.num_shards(); ++s) {
      if (present && s == store.ShardOf(2)) {
        EXPECT_EQ(occupancy(s), occupied[s] - 1);
        EXPECT_EQ(store.PinShard(s)->epoch, views[s]->epoch + 1);
      } else {
        EXPECT_EQ(occupancy(s), occupied[s]) << "shard " << s;
        EXPECT_EQ(store.PinShard(s), views[s]) << "shard " << s;
      }
    }
  }
}

// The stage names of `trace`, in recording order.
std::vector<std::string> Stages(const metrics::QueryTrace& trace) {
  std::vector<std::string> stages;
  for (size_t i = 0; i < trace.size(); ++i) {
    stages.push_back(trace.span(i).stage);
  }
  return stages;
}

TEST(ServiceMetricsTest, QueryTraceCapturesTopKStages) {
  auto store = SketchStore::Make(SmallStoreOptions()).value();
  for (uint64_t id = 0; id < 16; ++id) {
    ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  QueryEngine engine(&store, nullptr);
  metrics::QueryTrace trace;
  const auto hits = engine.TopK(RandomVector(1000), 5, &trace);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(Stages(trace), (std::vector<std::string>{
                               "sketch-query", "shard-scan", "heap-merge"}));
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_GT(trace.total_ns(), 0u);

  // The banded policy replaces the shard scan with its two index stages.
  {
    auto index = BandedIndex::MakeAttached(&store, {16, 4});
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    QueryEngine banded(&store, nullptr, index.value().get(),
                       IndexPolicy::kBandedRerank);
    metrics::QueryTrace banded_trace;
    ASSERT_TRUE(banded.TopK(RandomVector(3), 5, &banded_trace).ok());
    EXPECT_EQ(Stages(banded_trace),
              (std::vector<std::string>{"sketch-query", "band-query",
                                        "index-probe", "heap-merge"}));
  }

  // Tracing does not change results, and a reused trace must be cleared.
  metrics::QueryTrace reused = trace;
  reused.Clear();
  const auto untraced = engine.TopK(RandomVector(1000), 5).value();
  const auto traced = engine.TopK(RandomVector(1000), 5, &reused).value();
  ASSERT_EQ(traced.size(), untraced.size());
  for (size_t i = 0; i < traced.size(); ++i) {
    EXPECT_EQ(traced[i].id, untraced[i].id);
    EXPECT_EQ(traced[i].estimate, untraced[i].estimate);
  }
  EXPECT_EQ(reused.size(), 3u);
}

TEST(ServiceMetricsTest, QueryCountersMoveOnTopK) {
  auto& registry = metrics::MetricsRegistry::Global();
  auto& queries = registry.GetCounter("ipsketch_query_total");
  auto& scanned = registry.GetCounter("ipsketch_query_sketches_scanned_total");
  auto store = SketchStore::Make(SmallStoreOptions()).value();
  for (uint64_t id = 0; id < 10; ++id) {
    ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  QueryEngine engine(&store, nullptr);
  const uint64_t queries_before = queries.Value();
  const uint64_t scanned_before = scanned.Value();
  ASSERT_TRUE(engine.TopK(RandomVector(77), 3).ok());
  EXPECT_EQ(queries.Value(), queries_before + 1);
  EXPECT_EQ(scanned.Value(), scanned_before + 10);
}

// Each query API moves its latency and size histograms by exactly one
// sample per call (per query for candidate counts), on both policies and
// at any batch size.
TEST(ServiceMetricsTest, QueryHistogramsMoveOncePerCall) {
  auto& registry = metrics::MetricsRegistry::Global();
  auto& topk_ns = registry.GetHistogram("ipsketch_query_topk_ns");
  auto& candidates = registry.GetHistogram("ipsketch_query_candidates");
  auto& rerank_ns = registry.GetHistogram("ipsketch_index_rerank_ns");
  auto& scan_ns = registry.GetHistogram("ipsketch_query_scan_ns");
  auto& pair_ns = registry.GetHistogram("ipsketch_query_estimate_pair_ns");
  auto& queries = registry.GetCounter("ipsketch_query_total");

  auto store = SketchStore::Make(SmallStoreOptions()).value();
  for (uint64_t id = 0; id < 12; ++id) {
    ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  QueryEngine exact(&store, nullptr);
  QueryEngine banded(&store, nullptr, index.value().get(),
                     IndexPolicy::kBandedRerank);

  struct Counts {
    uint64_t topk, cand, cand_sum, rerank, scan, pair, queries;
  };
  const auto read = [&] {
    const auto cand = candidates.Snapshot();
    return Counts{topk_ns.Snapshot().count, cand.count,   cand.sum,
                  rerank_ns.Snapshot().count, scan_ns.Snapshot().count,
                  pair_ns.Snapshot().count,  queries.Value()};
  };

  // Exact TopK: one latency sample, one candidate sample of the whole
  // store, no re-rank.
  Counts before = read();
  ASSERT_TRUE(exact.TopK(RandomVector(40), 3).ok());
  Counts after = read();
  EXPECT_EQ(after.topk - before.topk, 1u);
  EXPECT_EQ(after.cand - before.cand, 1u);
  EXPECT_EQ(after.cand_sum - before.cand_sum, 12u);
  EXPECT_EQ(after.rerank - before.rerank, 0u);
  EXPECT_EQ(after.queries - before.queries, 1u);

  // Banded TopKSketch on a stored vector's twin: one re-rank sample too,
  // and the candidate sample counts what the probe actually scored.
  const auto twin = store.Lookup(5).value();
  before = read();
  const auto hits = banded.TopKSketch(*twin, 3).value();
  after = read();
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].id, 5u);
  EXPECT_EQ(after.topk - before.topk, 1u);
  EXPECT_EQ(after.cand - before.cand, 1u);
  EXPECT_GE(after.cand_sum - before.cand_sum, 1u);
  EXPECT_LE(after.cand_sum - before.cand_sum, 12u);
  EXPECT_EQ(after.rerank - before.rerank, 1u);
  EXPECT_EQ(after.queries - before.queries, 1u);

  // A batch of three: one latency sample for the call, one candidate
  // sample per query.
  before = read();
  const auto batch = exact.TopKSketchBatch({twin.get(), twin.get(), twin.get()},
                                           {1, 2, 3});
  after = read();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(after.topk - before.topk, 1u);
  EXPECT_EQ(after.cand - before.cand, 3u);
  EXPECT_EQ(after.cand_sum - before.cand_sum, 36u);
  EXPECT_EQ(after.queries - before.queries, 3u);

  // EstimateAgainstQuery and EstimateInnerProduct: one sample each.
  before = read();
  ASSERT_TRUE(exact.EstimateAgainstQuery(RandomVector(41)).ok());
  ASSERT_TRUE(exact.EstimateInnerProduct(1, 2).ok());
  after = read();
  EXPECT_EQ(after.scan - before.scan, 1u);
  EXPECT_EQ(after.pair - before.pair, 1u);
  EXPECT_EQ(after.topk - before.topk, 0u);
  EXPECT_EQ(after.queries - before.queries, 2u);
}

}  // namespace
}  // namespace ipsketch
