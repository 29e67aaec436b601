// BandedIndex + index-aware QueryEngine: listener attach/replay coherence
// under insert/erase/replace, banded hits bit-identical to the exact scan
// and to the pairwise estimator for every banding family and kernel tier,
// TopK edge cases on both paths, deterministic tie-breaks, the
// construction check that a banded policy has an index, a probe's
// compatibility check, recall probes, a concurrent insert/erase/query
// stress and a concurrent unchanged re-store under readers (both run by
// the TSAN job), the flat postings table (reserved-value-free ids and
// keys, wrap-around deletion, growth, long single-key runs) on its own and
// through the store against a reference multimap (per-shard probes and the
// engine's banded top-k alike), one InsertBatch against the same inserts
// one by one, and the family-side LSH code contract.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/simd/dispatch.h"
#include "data/synthetic.h"
#include "index/banded_index.h"
#include "service/front_door.h"
#include "service/metrics.h"
#include "service/query_engine.h"
#include "service/sketch_store.h"
#include "service/thread_pool.h"
#include "sketch/family.h"
#include "tests/store_test_util.h"

namespace ipsketch {
namespace {

constexpr uint64_t kDim = 512;
constexpr size_t kOddSamples = 67;  // odd: every kernel tier runs its tail

struct FamilyConfig {
  std::string family;
  std::map<std::string, std::string> params;
};

// Names the parameter in gtest failure messages.
void PrintTo(const FamilyConfig& config, std::ostream* os) {
  *os << config.family;
}

/// Exactly the families with FamilyInfo::supports_banding.
std::vector<FamilyConfig> BandingConfigs() {
  return {
      {"wmh", {{"engine", "dart"}}},
      {"icws", {{"engine", "dart"}}},
      {"mh", {}},
      {"wmh_compact", {{"engine", "dart"}}},
      {"wmh_bbit", {{"engine", "dart"}, {"bits", "12"}}},
  };
}

SketchStoreOptions SmallStoreOptions(const std::string& family = "wmh") {
  SketchStoreOptions opts;
  opts.family = family;
  opts.sketch.dimension = kDim;
  opts.sketch.num_samples = 64;
  opts.sketch.seed = 42;
  opts.num_shards = 8;
  return opts;
}

// A deterministic random sparse vector with ~24 non-zeros among the first
// `support` coordinates (a small support makes any two vectors overlap).
SparseVector RandomVector(uint64_t seed, uint64_t support = kDim) {
  Xoshiro256StarStar rng(seed);
  std::vector<Entry> entries;
  for (uint64_t index : SampleDistinctIndices(support, 24, seed)) {
    entries.push_back({index, rng.NextUnit() * 2.0 - 1.0});
  }
  return SparseVector::MakeOrDie(kDim, std::move(entries));
}

SketchStore MakeFilledStore(size_t count, uint64_t seed_base = 100) {
  auto made = SketchStore::Make(SmallStoreOptions());
  IPS_CHECK(made.ok());
  SketchStore store = std::move(made).value();
  for (size_t i = 0; i < count; ++i) {
    IPS_CHECK(store.BuildAndInsert(i + 1, RandomVector(seed_base + i)).ok());
  }
  return store;
}

uint64_t CounterValue(const std::string& name) {
  return metrics::MetricsRegistry::Global().GetCounter(name, "").Value();
}

std::shared_ptr<const SketchFamily> MakeFamilyOrDie(
    const FamilyConfig& config) {
  FamilyOptions options;
  options.dimension = kDim;
  options.num_samples = kOddSamples;
  options.seed = 7;
  options.params = config.params;
  auto family = MakeFamily(config.family, options);
  IPS_CHECK(family.ok());
  return std::move(family).value();
}

std::unique_ptr<AnySketch> SketchOrDie(const SketchFamily& family,
                                       const SparseVector& vec) {
  auto sketcher = family.MakeSketcher();
  IPS_CHECK(sketcher.ok());
  auto sketch = family.NewSketch();
  IPS_CHECK(sketcher.value()->Sketch(vec, sketch.get()).ok());
  return sketch;
}

/// The exact-scan row for `id` in `all` (sorted by id), or nullptr.
const QueryHit* FindRow(const std::vector<QueryHit>& all, uint64_t id) {
  const auto by_id = [](const QueryHit& hit, uint64_t key) {
    return hit.id < key;
  };
  auto it = std::lower_bound(all.begin(), all.end(), id, by_id);
  return it != all.end() && it->id == id ? &*it : nullptr;
}

class ScopedKernel {
 public:
  explicit ScopedKernel(const simd::EstimateKernel* kernel) {
    simd::SetActiveKernelForTesting(kernel);
  }
  ~ScopedKernel() { simd::SetActiveKernelForTesting(nullptr); }
};

TEST(BandedLshParamsTest, ValidateEnforcesTheBandsTimesRowsBudget) {
  // The default is the documented operating point, (16, 8), and fits the
  // families' default m.
  EXPECT_EQ(BandedLshParams{}.bands, 16u);
  EXPECT_EQ(BandedLshParams{}.rows, 8u);
  EXPECT_TRUE(BandedLshParams{}.Validate(FamilyOptions{}.num_samples).ok());
  EXPECT_TRUE((BandedLshParams{16, 4}).Validate(64).ok());
  EXPECT_TRUE((BandedLshParams{1, 1}).Validate(1).ok());
  EXPECT_TRUE((BandedLshParams{21, 3}).Validate(64).ok());  // 63 ≤ 64
  EXPECT_EQ((BandedLshParams{0, 4}).Validate(64).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((BandedLshParams{4, 0}).Validate(64).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((BandedLshParams{17, 4}).Validate(64).code(),
            StatusCode::kInvalidArgument);  // 68 > 64
}

TEST(BandedIndexTest, MakeAttachedRejectsNonBandingFamilies) {
  for (const char* family : {"kmv", "cs", "jl"}) {
    SCOPED_TRACE(family);
    auto made = SketchStore::Make(SmallStoreOptions(family));
    ASSERT_TRUE(made.ok());
    SketchStore store = std::move(made).value();
    auto index = BandedIndex::MakeAttached(&store, {16, 4});
    EXPECT_EQ(index.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(BandedIndexTest, AttachReplaysResidentSketchesExactlyOnce) {
  SketchStore store = MakeFilledStore(37);
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index.value()->size(), store.size());
  EXPECT_EQ(index.value()->size(), 37u);
}

TEST(BandedIndexTest, OnlyOneListenerMayAttach) {
  SketchStore store = MakeFilledStore(5);
  auto made = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(made.ok());
  std::unique_ptr<BandedIndex> first = std::move(made).value();
  auto second = BandedIndex::MakeAttached(&store, {8, 8});
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  // Destroying the index detaches; the slot frees up.
  first.reset();
  auto third = BandedIndex::MakeAttached(&store, {8, 8});
  EXPECT_TRUE(third.ok());
}

TEST(BandedIndexTest, IndexTracksInsertEraseAndReplace) {
  SketchStore store = MakeFilledStore(0);
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok());

  for (size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(store.BuildAndInsert(i + 1, RandomVector(500 + i)).ok());
  }
  EXPECT_EQ(index.value()->size(), 20u);

  // Replace (insert under an existing id) must not grow the index.
  ASSERT_TRUE(store.BuildAndInsert(7, RandomVector(999)).ok());
  EXPECT_EQ(index.value()->size(), 20u);

  // Erase shrinks; erasing an absent id is NotFound and leaves it alone.
  ASSERT_TRUE(store.Erase(7).ok());
  ASSERT_TRUE(store.Erase(13).ok());
  EXPECT_EQ(store.Erase(7).code(), StatusCode::kNotFound);
  EXPECT_EQ(index.value()->size(), 18u);

  // The replaced sketch is queryable under its new contents: a banded
  // self-query for the replacement vector must surface id 7... after
  // reinserting it.
  ASSERT_TRUE(store.BuildAndInsert(7, RandomVector(999)).ok());
  QueryEngine engine(&store, nullptr, index.value().get(),
                     IndexPolicy::kBandedRerank);
  auto hits = engine.TopK(RandomVector(999), 1);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits.value().size(), 1u);
  EXPECT_EQ(hits.value()[0].id, 7u);
}

// Each index counter moves by exactly what one call does: attaching files
// every resident sketch, a new id or a replace files one, an erase unfiles
// one (a NotFound erase none), and a probe adds the stats it returns.
TEST(BandedIndexTest, IndexCountersMoveOncePerCall) {
  SketchStore store = MakeFilledStore(25);
  const uint64_t attach_inserts = CounterValue("ipsketch_index_inserts_total");
  auto made = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(made.ok());
  const std::unique_ptr<BandedIndex> index = std::move(made).value();
  EXPECT_EQ(CounterValue("ipsketch_index_inserts_total"), attach_inserts + 25);

  const uint64_t inserts = CounterValue("ipsketch_index_inserts_total");
  ASSERT_TRUE(store.BuildAndInsert(1000, RandomVector(1000)).ok());
  EXPECT_EQ(CounterValue("ipsketch_index_inserts_total"), inserts + 1);
  ASSERT_TRUE(store.BuildAndInsert(1000, RandomVector(1001)).ok());
  EXPECT_EQ(CounterValue("ipsketch_index_inserts_total"), inserts + 2);

  const uint64_t erases = CounterValue("ipsketch_index_erases_total");
  ASSERT_TRUE(store.Erase(1000).ok());
  EXPECT_EQ(CounterValue("ipsketch_index_erases_total"), erases + 1);
  EXPECT_EQ(store.Erase(1000).code(), StatusCode::kNotFound);
  EXPECT_EQ(CounterValue("ipsketch_index_erases_total"), erases + 1);

  // A self-query of stored id 1 collides with it in every band.
  const auto query = SketchOrDie(store.family(), RandomVector(100));
  std::vector<uint64_t> keys;
  ASSERT_TRUE(index->QueryBandKeys(*query, &keys).ok());
  uint64_t candidates_seen = 0;
  for (size_t s = 0; s < store.num_shards(); ++s) {
    const uint64_t buckets =
        CounterValue("ipsketch_index_buckets_probed_total");
    const uint64_t candidates = CounterValue("ipsketch_index_candidates_total");
    TopKHeap heap(10);
    IndexProbeStats stats;
    ASSERT_TRUE(index->ProbeShard(*query, keys, s, &heap, &stats).ok());
    EXPECT_EQ(CounterValue("ipsketch_index_buckets_probed_total"),
              buckets + stats.buckets_probed)
        << "shard " << s;
    EXPECT_EQ(CounterValue("ipsketch_index_candidates_total"),
              candidates + stats.candidates)
        << "shard " << s;
    candidates_seen += stats.candidates;
  }
  EXPECT_GE(candidates_seen, 1u);
}

TEST(BandedIndexTest, BandedSelfQueriesFindEveryStoredVector) {
  // A query identical to a stored vector collides on every sample, hence in
  // every band — the index is *guaranteed* to surface it, whatever (b, r).
  constexpr size_t kCorpus = 30;
  SketchStore store = MakeFilledStore(kCorpus);
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok());
  QueryEngine engine(&store, nullptr, index.value().get(),
                     IndexPolicy::kBandedRerank);
  for (size_t i = 0; i < kCorpus; ++i) {
    auto hits = engine.TopK(RandomVector(100 + i), 1);
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(hits.value().size(), 1u) << "query " << i;
    EXPECT_EQ(hits.value()[0].id, i + 1) << "query " << i;
  }
}

// The banded path's one bit-identity contract, per banding family and per
// available kernel tier: every banded hit's estimate equals, bit for bit,
// both the exact scan's estimate for that id and SketchFamily::Estimate on
// the stored sketch — before and after a replace and an erase.
class BandedBitIdentityTest : public ::testing::TestWithParam<FamilyConfig> {};

TEST_P(BandedBitIdentityTest, HitsMatchExactScanAndPairwiseBitForBit) {
  const FamilyConfig& config = GetParam();
  SketchStoreOptions opts = SmallStoreOptions(config.family);
  opts.sketch.num_samples = kOddSamples;
  opts.sketch.params = config.params;
  auto made = SketchStore::Make(opts);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  SketchStore store = std::move(made).value();
  constexpr uint64_t kCorpus = 40;  // > num_shards: every shard populated
  constexpr uint64_t kSupport = 64;
  for (uint64_t id = 1; id <= kCorpus; ++id) {
    const SparseVector vec = RandomVector(1000 + id, kSupport);
    ASSERT_TRUE(store.BuildAndInsert(id, vec).ok());
  }
  // A small support and one-row bands make most stored sketches come back
  // as candidates, so the comparison covers many hits.
  auto index = BandedIndex::MakeAttached(&store, {/*bands=*/32, /*rows=*/1});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  QueryEngine exact(&store);
  QueryEngine banded(&store, nullptr, index.value().get(),
                     IndexPolicy::kBandedRerank);

  // Runs `query_seed`'s vector through both paths under every kernel tier;
  // `twin` (0 = none) must be among the banded hits, `absent` must not.
  auto check = [&](uint64_t query_seed, uint64_t twin, uint64_t absent) {
    SCOPED_TRACE("query seed " + std::to_string(query_seed));
    const SparseVector query = RandomVector(query_seed, kSupport);
    const auto query_sketch = SketchOrDie(store.family(), query);
    for (const simd::EstimateKernel* kernel : simd::AvailableKernels()) {
      ScopedKernel scoped(kernel);
      auto all = exact.TopKSketch(*query_sketch, store.size());
      ASSERT_TRUE(all.status().ok());
      const std::vector<QueryHit> rows = SortedById(all.value());
      auto hits = banded.TopKSketch(*query_sketch, kCorpus);
      ASSERT_TRUE(hits.status().ok()) << hits.status().ToString();
      bool twin_found = false;
      for (const QueryHit& hit : hits.value()) {
        EXPECT_NE(hit.id, absent);
        twin_found = twin_found || hit.id == twin;
        const QueryHit* row = FindRow(rows, hit.id);
        ASSERT_NE(row, nullptr) << "id " << hit.id;
        EXPECT_EQ(std::bit_cast<uint64_t>(hit.estimate),
                  std::bit_cast<uint64_t>(row->estimate))
            << "id " << hit.id;
        auto stored = store.Lookup(hit.id);
        ASSERT_TRUE(stored.ok());
        auto pairwise = store.family().Estimate(*query_sketch, *stored.value());
        ASSERT_TRUE(pairwise.ok());
        EXPECT_EQ(std::bit_cast<uint64_t>(hit.estimate),
                  std::bit_cast<uint64_t>(pairwise.value()))
            << "id " << hit.id;
      }
      EXPECT_TRUE(twin == 0 || twin_found) << "twin " << twin;
      EXPECT_GT(hits.value().size(), kCorpus / 4);
    }
  };
  check(1003, /*twin=*/3, /*absent=*/0);
  check(1017, /*twin=*/17, /*absent=*/0);
  check(77777, /*twin=*/0, /*absent=*/0);

  // Replace id 3 with a new vector and erase id 17: the index re-files and
  // unfiles them, and scores still come from the live view.
  ASSERT_TRUE(store.BuildAndInsert(3, RandomVector(5003, kSupport)).ok());
  ASSERT_TRUE(store.Erase(17).ok());
  EXPECT_EQ(index.value()->size(), kCorpus - 1);
  check(5003, /*twin=*/3, /*absent=*/17);
  check(1017, /*twin=*/0, /*absent=*/17);
  check(77777, /*twin=*/0, /*absent=*/17);
}

INSTANTIATE_TEST_SUITE_P(
    BandingFamilies, BandedBitIdentityTest,
    ::testing::ValuesIn(BandingConfigs()),
    [](const ::testing::TestParamInfo<FamilyConfig>& info) {
      return info.param.family;
    });

TEST(BandedIndexTest, TopKEdgeCasesOnExactAndBandedPaths) {
  SketchStore empty_store = MakeFilledStore(0);
  auto empty_index = BandedIndex::MakeAttached(&empty_store, {16, 4});
  ASSERT_TRUE(empty_index.ok());
  constexpr size_t kCorpus = 23;  // spans all 8 shards unevenly
  SketchStore store = MakeFilledStore(kCorpus);
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok());
  const SparseVector query = RandomVector(777);

  const IndexPolicy policies[] = {IndexPolicy::kExactScan,
                                  IndexPolicy::kBandedRerank};
  for (IndexPolicy policy : policies) {
    SCOPED_TRACE(static_cast<int>(policy));
    QueryEngine on_empty(&empty_store, nullptr, empty_index.value().get(),
                         policy);
    QueryEngine engine(&store, nullptr, index.value().get(), policy);

    // Empty store: no hits at any k.
    for (size_t k : {0u, 1u, 10u}) {
      auto hits = on_empty.TopK(query, k);
      ASSERT_TRUE(hits.ok());
      EXPECT_TRUE(hits.value().empty()) << "k=" << k;
    }

    // k = 0: always empty.
    auto none = engine.TopK(query, 0);
    ASSERT_TRUE(none.ok());
    EXPECT_TRUE(none.value().empty());

    // k > corpus: at most the corpus comes back (exact returns all of it;
    // banded returns its candidates), sorted best-first with no duplicate
    // ids.
    auto all = engine.TopK(query, kCorpus + 100);
    ASSERT_TRUE(all.ok());
    EXPECT_LE(all.value().size(), kCorpus);
    if (policy != IndexPolicy::kBandedRerank) {
      EXPECT_EQ(all.value().size(), kCorpus);
    }
    for (size_t i = 1; i < all.value().size(); ++i) {
      EXPECT_GE(all.value()[i - 1].estimate, all.value()[i].estimate);
      EXPECT_NE(all.value()[i - 1].id, all.value()[i].id);
    }

    // k mid-corpus (crosses shard boundaries, 23 ids over 8 shards): the
    // result is the k-prefix of the full ranking.
    auto some = engine.TopK(query, 9);
    ASSERT_TRUE(some.ok());
    ASSERT_LE(some.value().size(), 9u);
    for (size_t i = 0; i < some.value().size(); ++i) {
      EXPECT_EQ(some.value()[i].id, all.value()[i].id) << "rank " << i;
      EXPECT_EQ(std::bit_cast<uint64_t>(some.value()[i].estimate),
                std::bit_cast<uint64_t>(all.value()[i].estimate));
    }
  }
}

TEST(BandedIndexTest, TiedEstimatesBreakTowardSmallerIdsOnEveryPath) {
  // The same vector under many ids produces exactly equal estimates; the
  // deterministic tie-break (core/similarity_search.h BetterHit) must hand
  // back the numerically smallest ids, in order, on every path — this pins
  // result stability across thread counts, shard orders, and policies.
  SketchStore store = MakeFilledStore(0);
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok());
  const SparseVector vec = RandomVector(4242);
  const std::vector<uint64_t> ids = {90, 12, 55, 3, 71, 28, 41, 66, 17, 84};
  for (uint64_t id : ids) {
    ASSERT_TRUE(store.BuildAndInsert(id, vec).ok());
  }
  ThreadPool pool(4);
  const IndexPolicy policies[] = {IndexPolicy::kExactScan,
                                  IndexPolicy::kBandedRerank};
  for (IndexPolicy policy : policies) {
    SCOPED_TRACE(static_cast<int>(policy));
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      QueryEngine engine(&store, p, index.value().get(), policy);
      auto hits = engine.TopK(vec, 4);
      ASSERT_TRUE(hits.ok());
      ASSERT_EQ(hits.value().size(), 4u);
      EXPECT_EQ(hits.value()[0].id, 3u);
      EXPECT_EQ(hits.value()[1].id, 12u);
      EXPECT_EQ(hits.value()[2].id, 17u);
      EXPECT_EQ(hits.value()[3].id, 28u);
    }
  }
}

// The policy is decided once, at construction: a banded policy without an
// index aborts there (and a FrontDoor inherits the check from its engine),
// while the exact policy needs no index.
TEST(BandedIndexDeathTest, BandedPolicyWithoutIndexAbortsAtConstruction) {
  SketchStore store = MakeFilledStore(15);
  EXPECT_DEATH(
      {
        QueryEngine engine(&store, nullptr, nullptr,
                           IndexPolicy::kBandedRerank);
      },
      "IPS_CHECK failed.*kExactScan");
  EXPECT_DEATH(
      {
        FrontDoor door(&store, nullptr, FrontDoorOptions{}, nullptr,
                       IndexPolicy::kBandedRerank);
      },
      "IPS_CHECK failed.*kExactScan");
  QueryEngine exact(&store, nullptr, nullptr, IndexPolicy::kExactScan);
  auto hits = exact.TopK(RandomVector(31337), 5);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits.value().size(), 5u);
}

// ProbeShard checks the query before it reads any posting, so a foreign
// sketch fails even on a probe that yields no candidates.
TEST(BandedIndexTest, ProbeShardRejectsIncompatibleQueryWithoutCandidates) {
  SketchStore store = MakeFilledStore(15);
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok());
  SketchStoreOptions other_opts = SmallStoreOptions();
  other_opts.sketch.seed = 4242;
  auto made = SketchStore::Make(other_opts);
  ASSERT_TRUE(made.ok());
  SketchStore other = std::move(made).value();
  ASSERT_TRUE(other.BuildAndInsert(1, RandomVector(100)).ok());
  const auto foreign = other.Lookup(1);
  ASSERT_TRUE(foreign.ok());
  for (size_t s = 0; s < store.num_shards(); ++s) {
    TopKHeap heap(10);
    IndexProbeStats stats;
    EXPECT_EQ(index.value()
                  ->ProbeShard(*foreign.value(), {}, s, &heap, &stats)
                  .code(),
              StatusCode::kInvalidArgument)
        << "shard " << s;
    EXPECT_EQ(stats.buckets_probed, 0u);
    EXPECT_EQ(stats.candidates, 0u);
    EXPECT_TRUE(heap.TakeSorted().empty());
  }
}

TEST(BandedIndexTest, ProbeRecallIsBoundedAndPerfectOnSelfQueries) {
  SketchStore store = MakeFilledStore(40);
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok());
  QueryEngine engine(&store, nullptr, index.value().get(),
                     IndexPolicy::kBandedRerank);
  QueryEngine no_index(&store, nullptr);
  EXPECT_EQ(no_index.ProbeRecall(RandomVector(1), 10).status().code(),
            StatusCode::kFailedPrecondition);

  // Stored id 2 is RandomVector(101). Its scaled copies have the same
  // normalized weights, hence the same samples, so all five collide in
  // every band and lead the exact top-10 of that vector.
  for (uint64_t c = 2; c <= 5; ++c) {
    ASSERT_TRUE(store
                    .BuildAndInsert(1000 + c,
                                    RandomVector(101).Scaled(
                                        static_cast<double>(c)))
                    .ok());
  }

  // Each probe moves the denominator by |exact top-k| (k: the store holds
  // 44) and the numerator by exactly its overlap, the banded top-k ids
  // that the exact top-k holds, which is recall × |exact top-k|.
  struct Probe {
    SparseVector query;
    size_t k;
    uint64_t min_overlap;
  };
  std::vector<Probe> probes;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    probes.push_back({RandomVector(6000 + seed), 10, 0});
  }
  probes.push_back({RandomVector(101), 10, 5});
  // A self-query's top-1 is the stored twin on both paths: recall 1.0.
  probes.push_back({RandomVector(100), 1, 1});
  for (const Probe& probe : probes) {
    const auto exact = no_index.TopK(probe.query, probe.k);
    const auto banded = engine.TopK(probe.query, probe.k);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(banded.ok());
    ASSERT_EQ(exact.value().size(), probe.k);
    std::set<uint64_t> exact_ids;
    for (const QueryHit& hit : exact.value()) exact_ids.insert(hit.id);
    uint64_t overlap = 0;
    for (const QueryHit& hit : banded.value()) {
      overlap += exact_ids.count(hit.id);
    }
    EXPECT_GE(overlap, probe.min_overlap);

    const uint64_t expected_before =
        CounterValue("ipsketch_index_recall_probe_expected_total");
    const uint64_t hits_before =
        CounterValue("ipsketch_index_recall_probe_hits_total");
    auto recall = engine.ProbeRecall(probe.query, probe.k);
    ASSERT_TRUE(recall.ok());
    EXPECT_GE(recall.value(), 0.0);
    EXPECT_LE(recall.value(), 1.0);
    EXPECT_EQ(recall.value(), static_cast<double>(overlap) /
                                  static_cast<double>(probe.k));
    EXPECT_EQ(CounterValue("ipsketch_index_recall_probe_expected_total") -
                  expected_before,
              probe.k);
    EXPECT_EQ(CounterValue("ipsketch_index_recall_probe_hits_total") -
                  hits_before,
              overlap);
  }

  // Empty store: exact set is empty, recall defined as 1.0.
  SketchStore empty_store = MakeFilledStore(0);
  auto empty_index = BandedIndex::MakeAttached(&empty_store, {16, 4});
  ASSERT_TRUE(empty_index.ok());
  QueryEngine on_empty(&empty_store, nullptr, empty_index.value().get(),
                       IndexPolicy::kBandedRerank);
  auto empty_recall = on_empty.ProbeRecall(RandomVector(2), 10);
  ASSERT_TRUE(empty_recall.ok());
  EXPECT_EQ(empty_recall.value(), 1.0);
}

// TSAN coverage: writers mutating the store (and, through the listener, the
// index) while readers run banded queries and the store's view-pinning point
// reads concurrently.
TEST(BandedIndexTest, ConcurrentInsertEraseAndQueryStress) {
  SketchStore store = MakeFilledStore(32);
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok());
  ThreadPool pool(2);
  QueryEngine pooled(&store, &pool, index.value().get(),
                     IndexPolicy::kBandedRerank);
  QueryEngine serial(&store, nullptr, index.value().get(),
                     IndexPolicy::kBandedRerank);

  constexpr size_t kOps = 150;
  std::thread writer([&] {
    for (size_t i = 0; i < kOps; ++i) {
      // Half fresh ids, half replacements of the seeded range.
      const uint64_t id = (i % 2 == 0) ? 1000 + i : 1 + (i % 32);
      ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(7000 + i)).ok());
    }
  });
  std::thread eraser([&] {
    for (size_t i = 0; i < kOps; ++i) {
      store.Erase(1 + (i % 32));  // NotFound races are expected and fine
    }
  });
  auto read = [&](const QueryEngine& engine, uint64_t seed_base) {
    for (size_t i = 0; i < 40; ++i) {
      auto hits = engine.TopK(RandomVector(seed_base + i), 5);
      ASSERT_TRUE(hits.ok());
      // Racing the eraser: the sketch or NotFound, never anything else.
      const uint64_t id = 1 + (i % 32);
      auto looked_up = store.Lookup(id);
      ASSERT_TRUE(looked_up.ok() ||
                  looked_up.status().code() == StatusCode::kNotFound);
      ASSERT_LE(store.size(), 32 + kOps);
    }
  };
  std::thread pooled_reader([&] { read(pooled, 8000); });
  std::thread serial_reader([&] { read(serial, 8500); });
  writer.join();
  eraser.join();
  pooled_reader.join();
  serial_reader.join();

  // Quiesced: the index mirrors the store exactly, and every banded hit
  // scores bit-identically to the exact scan. Id 1148 (written last by an
  // even op, never erased) is the stored twin of the query.
  EXPECT_EQ(index.value()->size(), store.size());
  const SparseVector query = RandomVector(7148);
  QueryEngine exact(&store, nullptr);
  auto all = exact.TopK(query, store.size());
  auto hits = serial.TopK(query, store.size());
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits.value().empty());
  EXPECT_EQ(hits.value()[0].id, 1148u);
  const std::vector<QueryHit> rows = SortedById(all.value());
  for (const QueryHit& hit : hits.value()) {
    const QueryHit* row = FindRow(rows, hit.id);
    ASSERT_NE(row, nullptr) << "id " << hit.id;
    EXPECT_EQ(std::bit_cast<uint64_t>(hit.estimate),
              std::bit_cast<uint64_t>(row->estimate));
  }
}

// TSAN coverage: a writer re-storing sketches unchanged while readers run
// self-queries. Each write unfiles and refiles its id in every band; a
// reader walking the bands meanwhile must still find the id, so its
// self-query's top hit never goes missing.
TEST(BandedIndexTest, UnchangedReStoreNeverHidesAnIdFromReaders) {
  auto made = SketchStore::Make(SmallStoreOptions());
  ASSERT_TRUE(made.ok());
  SketchStore store = std::move(made).value();
  // Disjoint supports: no two vectors share a sample, so each one's own
  // sketch is the only candidate of its self-query.
  constexpr uint64_t kVectors = 64;
  constexpr uint64_t kWidth = kDim / kVectors;
  std::vector<std::unique_ptr<AnySketch>> sketches;
  for (uint64_t id = 0; id < kVectors; ++id) {
    std::vector<Entry> entries;
    for (uint64_t i = 0; i < kWidth; ++i) {
      entries.push_back({id * kWidth + i, 1.0 + static_cast<double>(i)});
    }
    sketches.push_back(SketchOrDie(
        store.family(), SparseVector::MakeOrDie(kDim, std::move(entries))));
    ASSERT_TRUE(store.Insert(id, sketches.back()->Clone()).ok());
  }
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok());
  const QueryEngine engine(&store, nullptr, index.value().get(),
                           IndexPolicy::kBandedRerank);

  constexpr uint64_t kRewritten = 8;
  std::atomic<bool> writing{true};
  std::thread writer([&] {
    for (size_t i = 0; i < 20000; ++i) {
      const uint64_t id = i % kRewritten;
      EXPECT_TRUE(store.Insert(id, sketches[id]->Clone()).ok());
    }
    writing = false;
  });
  struct Reads {
    size_t probes = 0;
    size_t missed = 0;
  };
  const auto read = [&](uint64_t offset, Reads* reads) {
    do {
      const uint64_t id = (reads->probes + offset) % kRewritten;
      const auto hits = engine.TopKSketch(*sketches[id], 1);
      ++reads->probes;
      if (!hits.ok() || hits.value().empty() || hits.value()[0].id != id) {
        ++reads->missed;
      }
    } while (writing);
  };
  Reads first;
  Reads second;
  std::thread first_reader([&] { read(0, &first); });
  std::thread second_reader([&] { read(3, &second); });
  writer.join();
  first_reader.join();
  second_reader.join();
  EXPECT_EQ(first.missed, 0u) << "of " << first.probes << " probes";
  EXPECT_EQ(second.missed, 0u) << "of " << second.probes << " probes";
}

// --- the postings table ------------------------------------------------------

/// A reference multimap: band key → ids filed under it, with multiplicity.
using ReferencePostings = std::map<uint64_t, std::multiset<uint64_t>>;

std::vector<uint64_t> SortedIds(const BandPostings& table, uint64_t key) {
  std::vector<uint64_t> ids;
  const size_t appended = table.Append(key, &ids);
  EXPECT_EQ(appended, ids.size());
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Every key `reference` has ever held probes to exactly its ids.
void ExpectMatches(const BandPostings& table,
                   const ReferencePostings& reference) {
  size_t postings = 0;
  for (const auto& [key, ids] : reference) {
    EXPECT_EQ(SortedIds(table, key),
              std::vector<uint64_t>(ids.begin(), ids.end()))
        << "key " << key;
    postings += ids.size();
  }
  EXPECT_EQ(table.size(), postings);
  EXPECT_LE(table.size() * BandPostings::kMaxLoadDen,
            table.capacity() * BandPostings::kMaxLoadNum);
}

void FileBoth(BandPostings* table, ReferencePostings* reference,
              uint64_t key, uint64_t id) {
  table->Insert(key, id);
  (*reference)[key].insert(id);
}

void UnfileBoth(BandPostings* table, ReferencePostings* reference,
                uint64_t key, uint64_t id) {
  ASSERT_TRUE(table->Erase(key, id)) << key << " " << id;
  auto& ids = (*reference)[key];
  ids.erase(ids.find(id));
}

TEST(BandPostingsTest, NoKeyOrIdValueIsReserved) {
  constexpr uint64_t kMax = ~uint64_t{0};
  BandPostings table;
  ReferencePostings reference;
  for (uint64_t key : {uint64_t{0}, kMax, uint64_t{1}}) {
    for (uint64_t id : {uint64_t{0}, kMax, uint64_t{7}}) {
      FileBoth(&table, &reference, key, id);
    }
  }
  ExpectMatches(table, reference);
  EXPECT_FALSE(table.Erase(2, 0));     // absent key
  EXPECT_FALSE(table.Erase(0, 1));     // absent id under a present key
  UnfileBoth(&table, &reference, kMax, 0);
  UnfileBoth(&table, &reference, 0, kMax);
  ExpectMatches(table, reference);
  EXPECT_FALSE(table.Erase(kMax, 0));  // already unfiled
}

TEST(BandPostingsTest, DeletionShiftsBackAcrossSlotZero) {
  BandPostings table;
  ASSERT_EQ(table.capacity(), 64u);
  ReferencePostings reference;
  // Three keys homed at the last slot wrap onto slots 0 and 1, pushing the
  // keys homed at 0 and 2 to slots 2 and 3; key 4 sits at its home.
  FileBoth(&table, &reference, 63, 1);   // slot 63
  FileBoth(&table, &reference, 127, 2);  // slot 0
  FileBoth(&table, &reference, 191, 3);  // slot 1
  FileBoth(&table, &reference, 0, 4);    // slot 2
  FileBoth(&table, &reference, 2, 5);    // slot 3
  FileBoth(&table, &reference, 4, 6);    // slot 4
  ExpectMatches(table, reference);
  // Unfiling slot 63 shifts the rest of the run back over the wrap; key 4,
  // already home, stays. Every key must still reach its ids.
  UnfileBoth(&table, &reference, 63, 1);
  ExpectMatches(table, reference);
  UnfileBoth(&table, &reference, 0, 4);
  ExpectMatches(table, reference);
  UnfileBoth(&table, &reference, 191, 3);
  ExpectMatches(table, reference);
  FileBoth(&table, &reference, 63, 7);
  UnfileBoth(&table, &reference, 127, 2);
  ExpectMatches(table, reference);
}

TEST(BandPostingsTest, ManyIdsUnderOneKey) {
  // Near-duplicates share every band key: one long run under one key,
  // interleaved with unrelated keys homed inside it.
  BandPostings table;
  ReferencePostings reference;
  constexpr uint64_t kKey = 0x9e3779b97f4a7c15ULL;
  for (uint64_t id = 0; id < 300; ++id) {
    FileBoth(&table, &reference, kKey, id);
    if (id % 10 == 0) FileBoth(&table, &reference, kKey + id + 1, id);
  }
  ExpectMatches(table, reference);
  for (uint64_t id = 0; id < 300; id += 2) {
    UnfileBoth(&table, &reference, kKey, id);
  }
  ExpectMatches(table, reference);
}

TEST(BandPostingsTest, GrowsWhileIdsAreResident) {
  BandPostings table;
  ReferencePostings reference;
  Xoshiro256StarStar rng(11);
  size_t capacity = table.capacity();
  size_t doublings = 0;
  for (uint64_t id = 0; id < 2000; ++id) {
    FileBoth(&table, &reference, rng(), id);
    if (table.capacity() != capacity) {
      EXPECT_EQ(table.capacity(), 2 * capacity);
      capacity = table.capacity();
      ++doublings;
      ExpectMatches(table, reference);  // right after every rehash
    }
  }
  EXPECT_EQ(table.capacity(), 4096u);  // 2000 > 0.75 · 2048
  EXPECT_EQ(doublings, 6u);
  ExpectMatches(table, reference);
}

TEST(BandPostingsTest, ErasesDownToEmptyAndRefills) {
  BandPostings table;
  ReferencePostings reference;
  Xoshiro256StarStar rng(12);
  std::vector<std::pair<uint64_t, uint64_t>> filed;
  for (uint64_t id = 0; id < 200; ++id) {
    // Few distinct keys, so probe runs are long and overlap.
    const uint64_t key = rng.NextBounded(16) * 61;
    FileBoth(&table, &reference, key, id);
    filed.push_back({key, id});
  }
  std::shuffle(filed.begin(), filed.end(), rng);
  for (const auto& [key, id] : filed) {
    UnfileBoth(&table, &reference, key, id);
  }
  EXPECT_EQ(table.size(), 0u);
  ExpectMatches(table, reference);  // every key probes empty
  // An emptied table keeps its capacity and works as new.
  const size_t capacity = table.capacity();
  FileBoth(&table, &reference, 61, 5);
  ExpectMatches(table, reference);
  EXPECT_EQ(table.capacity(), capacity);
}

TEST(BandPostingsTest, RandomOperationsMatchAReferenceMultimap) {
  // Keys whose low bits put their home in the last eight or first four
  // slots at every capacity, with aliases above bit 32: probe runs
  // constantly wrap past slot 0, grow, and shift back, and repeated
  // (key, id) pairs file twice.
  BandPostings table;
  ReferencePostings reference;
  std::vector<std::pair<uint64_t, uint64_t>> filed;
  Xoshiro256StarStar rng(13);
  for (size_t op = 0; op < 6000; ++op) {
    if (filed.empty() || (filed.size() < 150 && rng.NextBounded(2) == 0)) {
      const uint64_t low = rng.NextBounded(12);
      const uint64_t key = (rng.NextBounded(3) << 32) |
                           (low < 8 ? 0xffff - low : low - 8);
      const uint64_t id = rng.NextBounded(50);
      FileBoth(&table, &reference, key, id);
      filed.push_back({key, id});
    } else {
      const size_t pick = rng.NextBounded(filed.size());
      UnfileBoth(&table, &reference, filed[pick].first, filed[pick].second);
      filed[pick] = filed.back();
      filed.pop_back();
    }
    if (op % 50 == 0) ExpectMatches(table, reference);
  }
  ExpectMatches(table, reference);
}

// --- the index over a store: the postings against a reference ---------------

/// The candidate ids and non-empty-bucket count one shard's probe yields.
struct ShardProbe {
  std::vector<uint64_t> ids;  // sorted
  uint64_t buckets = 0;
};

ShardProbe ProbeIds(const BandedIndex& index, const AnySketch& query,
                    size_t shard) {
  std::vector<uint64_t> keys;
  IPS_CHECK(index.QueryBandKeys(query, &keys).ok());
  TopKHeap heap(~size_t{0});
  IndexProbeStats stats;
  IPS_CHECK(index.ProbeShard(query, keys, shard, &heap, &stats).ok());
  ShardProbe probe;
  for (const SimilarityHit& hit : heap.TakeSorted()) {
    probe.ids.push_back(static_cast<uint64_t>(hit.index));
  }
  std::sort(probe.ids.begin(), probe.ids.end());
  EXPECT_EQ(stats.candidates, probe.ids.size());
  probe.buckets = stats.buckets_probed;
  return probe;
}

/// Mirrors a store's mutations as (band key, id) postings per shard, with
/// keys from the index's own QueryBandKeys, and checks every shard's probe
/// against it, then the banded engine's top-k against the probes.
class ReferenceIndex {
 public:
  ReferenceIndex(const SketchStore* store, const BandedIndex* index)
      : store_(store), index_(index), shards_(store->num_shards()) {}

  void Insert(uint64_t id, const AnySketch& sketch) {
    Erase(id);
    std::vector<uint64_t> keys;
    IPS_CHECK(index_->QueryBandKeys(sketch, &keys).ok());
    for (uint64_t key : keys) shards_[store_->ShardOf(id)][key].insert(id);
    keys_[id] = std::move(keys);
  }

  void Erase(uint64_t id) {
    auto it = keys_.find(id);
    if (it == keys_.end()) return;
    auto& shard = shards_[store_->ShardOf(id)];
    for (uint64_t key : it->second) shard[key].erase(shard[key].find(id));
    keys_.erase(it);
  }

  size_t size() const { return keys_.size(); }

  /// One banded top-k with k past the store's size returns the union of
  /// the shard probes, each hit scored bit for bit as the pairwise
  /// estimate, and moves the index counters by the probes' summed stats.
  void ExpectEngineMatches(const AnySketch& query,
                           const std::set<uint64_t>& union_ids,
                           const IndexProbeStats& summed) const {
    const QueryEngine engine(store_, nullptr, index_,
                             IndexPolicy::kBandedRerank);
    const uint64_t buckets =
        CounterValue("ipsketch_index_buckets_probed_total");
    const uint64_t candidates = CounterValue("ipsketch_index_candidates_total");
    const auto hits = engine.TopKSketch(query, store_->size() + 1);
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    EXPECT_EQ(CounterValue("ipsketch_index_buckets_probed_total") - buckets,
              summed.buckets_probed);
    EXPECT_EQ(CounterValue("ipsketch_index_candidates_total") - candidates,
              summed.candidates);
    std::vector<uint64_t> ids;
    for (const QueryHit& hit : hits.value()) {
      ids.push_back(hit.id);
      const ShardViewPtr view = store_->PinShard(store_->ShardOf(hit.id));
      const AnySketch* stored = view->Find(hit.id);
      ASSERT_NE(stored, nullptr) << "id " << hit.id;
      const auto pairwise = store_->family().Estimate(query, *stored);
      ASSERT_TRUE(pairwise.ok());
      EXPECT_EQ(std::bit_cast<uint64_t>(hit.estimate),
                std::bit_cast<uint64_t>(pairwise.value()))
          << "id " << hit.id;
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, std::vector<uint64_t>(union_ids.begin(), union_ids.end()));
  }

  void ExpectProbesMatch(const AnySketch& query) const {
    std::vector<uint64_t> keys;
    IPS_CHECK(index_->QueryBandKeys(query, &keys).ok());
    std::set<uint64_t> union_ids;
    IndexProbeStats summed;
    for (size_t s = 0; s < shards_.size(); ++s) {
      std::set<uint64_t> expected;
      uint64_t buckets = 0;
      for (uint64_t key : keys) {
        auto it = shards_[s].find(key);
        if (it == shards_[s].end() || it->second.empty()) continue;
        ++buckets;
        expected.insert(it->second.begin(), it->second.end());
      }
      const ShardProbe probe = ProbeIds(*index_, query, s);
      EXPECT_EQ(probe.ids,
                std::vector<uint64_t>(expected.begin(), expected.end()))
          << "shard " << s;
      EXPECT_EQ(probe.buckets, buckets) << "shard " << s;
      union_ids.insert(expected.begin(), expected.end());
      summed.buckets_probed += probe.buckets;
      summed.candidates += probe.ids.size();
    }
    ExpectEngineMatches(query, union_ids, summed);
  }

 private:
  const SketchStore* store_;
  const BandedIndex* index_;
  std::vector<ReferencePostings> shards_;
  std::map<uint64_t, std::vector<uint64_t>> keys_;
};

TEST(BandedIndexTest, ProbesMatchAReferenceMultimapUnderRandomMutations) {
  SketchStore store = MakeFilledStore(0);
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok());
  ReferenceIndex reference(&store, index.value().get());
  constexpr uint64_t kMax = ~uint64_t{0};
  // Ids include both ends of the range; a small vector pool and support
  // make near-duplicates, identical replacements and shared buckets common.
  std::vector<uint64_t> id_pool = {0, kMax, kMax - 1, uint64_t{1} << 63};
  for (uint64_t id = 1; id <= 16; ++id) id_pool.push_back(id * id);
  std::vector<std::unique_ptr<AnySketch>> vectors;
  for (uint64_t v = 0; v < 12; ++v) {
    vectors.push_back(SketchOrDie(store.family(), RandomVector(300 + v, 48)));
  }
  Xoshiro256StarStar rng(2024);
  for (size_t op = 0; op < 400; ++op) {
    const uint64_t id = id_pool[rng.NextBounded(id_pool.size())];
    if (rng.NextBounded(4) == 0) {
      const bool present = store.Lookup(id).ok();
      EXPECT_EQ(store.Erase(id).ok(), present);
      reference.Erase(id);
    } else {
      const AnySketch& sketch = *vectors[rng.NextBounded(vectors.size())];
      ASSERT_TRUE(store.Insert(id, sketch.Clone()).ok());
      reference.Insert(id, sketch);
    }
    ASSERT_EQ(index.value()->size(), reference.size());
    const AnySketch& query = *vectors[op % vectors.size()];
    reference.ExpectProbesMatch(query);
    if (HasFailure()) FAIL() << "first mismatch after op " << op;
  }
  for (const auto& query : vectors) reference.ExpectProbesMatch(*query);
}

TEST(BandedIndexTest, IdenticalReplaceAndEraseLeaveNoStalePostings) {
  SketchStore store = MakeFilledStore(0);
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok());
  const auto sketch = SketchOrDie(store.family(), RandomVector(4321));
  constexpr uint64_t kMax = ~uint64_t{0};
  // Near-duplicates: the same sketch under many ids, 0 and max included,
  // enough to grow the shards' tables past their initial capacity.
  std::vector<uint64_t> ids = {0, kMax};
  for (uint64_t id = 1; id <= 60; ++id) ids.push_back(id * 1000003);
  for (uint64_t id : ids) ASSERT_TRUE(store.Insert(id, sketch->Clone()).ok());
  ReferenceIndex reference(&store, index.value().get());
  for (uint64_t id : ids) reference.Insert(id, *sketch);
  reference.ExpectProbesMatch(*sketch);

  // Replacing every id with an identical sketch must re-file, not
  // double-file: the probes and size do not move.
  for (uint64_t id : ids) ASSERT_TRUE(store.Insert(id, sketch->Clone()).ok());
  EXPECT_EQ(index.value()->size(), ids.size());
  reference.ExpectProbesMatch(*sketch);

  // Erasing every id empties every bucket (the reference now expects zero
  // buckets probed in every shard): nothing stale is left behind.
  for (uint64_t id : ids) {
    ASSERT_TRUE(store.Erase(id).ok());
    reference.Erase(id);
  }
  EXPECT_EQ(index.value()->size(), 0u);
  reference.ExpectProbesMatch(*sketch);
}

// One InsertBatch into a non-empty, indexed store — new ids, replaces of
// resident ids, duplicates within the batch, ids 0 and max — leaves exactly
// what Insert-ing its entries one by one leaves: every shard's ids and
// sketch bytes, the index's size and probes, and the counter deltas.
TEST(BandedIndexTest, InsertBatchMatchesOneByOneInserts) {
  constexpr uint64_t kMax = ~uint64_t{0};
  // (id, vector seed) in batch order; the store holds ids 1..40 already.
  std::vector<std::pair<uint64_t, uint64_t>> plan = {
      {0, 1},     // new
      {kMax, 2},  // new
      {5, 3},     // replaces a resident id
      {1000, 4},  // new
      {5, 5},     // repeats an id earlier in the batch: this entry wins
      {kMax, 6},  // repeat
      {17, 7},    // replace
      {0, 8},     // repeat
      {40, 9},    // replace
      {17, 10},   // repeat of a replace
  };
  // Ten more replaces and twenty more new ids.
  for (uint64_t i = 0; i < 30; ++i) {
    plan.push_back({i % 3 == 0 ? 1 + i : 2000 + 7 * i, 20 + i});
  }
  const auto deltas = [](const std::function<void()>& write) {
    auto& registry = metrics::MetricsRegistry::Global();
    const auto read = [&] {
      return std::vector<int64_t>{
          static_cast<int64_t>(CounterValue("ipsketch_store_inserts_total")),
          registry.GetGauge("ipsketch_store_size").Value(),
          registry.GetGauge("ipsketch_index_size").Value()};
    };
    std::vector<int64_t> moved = read();
    write();
    const std::vector<int64_t> after = read();
    for (size_t i = 0; i < moved.size(); ++i) moved[i] = after[i] - moved[i];
    return moved;
  };

  SketchStore batched = MakeFilledStore(40);
  SketchStore reference = MakeFilledStore(40);
  auto batched_index = BandedIndex::MakeAttached(&batched, {16, 4});
  auto reference_index = BandedIndex::MakeAttached(&reference, {16, 4});
  ASSERT_TRUE(batched_index.ok());
  ASSERT_TRUE(reference_index.ok());
  const SketchFamily& family = batched.family();
  const auto batch_moved = deltas([&] {
    std::vector<std::pair<uint64_t, std::unique_ptr<AnySketch>>> entries;
    for (const auto& [id, seed] : plan) {
      entries.emplace_back(id, SketchOrDie(family, RandomVector(seed)));
    }
    ASSERT_TRUE(batched.InsertBatch(std::move(entries)).ok());
  });
  const auto reference_moved = deltas([&] {
    for (const auto& [id, seed] : plan) {
      ASSERT_TRUE(
          reference.Insert(id, SketchOrDie(family, RandomVector(seed))).ok());
    }
  });
  EXPECT_EQ(batch_moved, reference_moved)
      << "inserts_total, store_size, index_size";
  EXPECT_EQ(batched.size(), 40u + 3u + 20u);

  for (size_t s = 0; s < batched.num_shards(); ++s) {
    const ShardViewPtr got = batched.PinShard(s);
    const ShardViewPtr want = reference.PinShard(s);
    ASSERT_EQ(got->ids, want->ids) << "shard " << s;
    for (size_t i = 0; i < got->ids.size(); ++i) {
      EXPECT_EQ(family.Serialize(*got->sketches[i]).value(),
                family.Serialize(*want->sketches[i]).value())
          << "id " << got->ids[i];
    }
  }
  EXPECT_EQ(batched_index.value()->size(), reference_index.value()->size());
  for (uint64_t seed : {1, 3, 8, 10, 25, 105}) {
    const auto query = SketchOrDie(family, RandomVector(seed));
    for (size_t s = 0; s < batched.num_shards(); ++s) {
      const ShardProbe got = ProbeIds(*batched_index.value(), *query, s);
      const ShardProbe want = ProbeIds(*reference_index.value(), *query, s);
      EXPECT_EQ(got.ids, want.ids) << "seed " << seed << ", shard " << s;
      EXPECT_EQ(got.buckets, want.buckets)
          << "seed " << seed << ", shard " << s;
    }
  }
}

// --- the family-side LSH contract the index is built on ---------------------

TEST(BandingFamiliesTest, LshCodesAreOnePerSampleAndCollisionExact) {
  for (const FamilyConfig& config : BandingConfigs()) {
    SCOPED_TRACE(config.family);
    auto family = MakeFamilyOrDie(config);
    ASSERT_TRUE(family->supports_banding());
    const auto a = SketchOrDie(*family, RandomVector(4000));
    const auto b = SketchOrDie(*family, RandomVector(4001));

    std::vector<uint64_t> codes_a, codes_b;
    ASSERT_TRUE(family->AppendLshCodes(*a, &codes_a).ok());
    ASSERT_TRUE(family->AppendLshCodes(*b, &codes_b).ok());
    EXPECT_EQ(codes_a.size(), kOddSamples);
    EXPECT_EQ(codes_b.size(), kOddSamples);

    // Two sketches of the same vector collide on every sample.
    const auto duplicate = SketchOrDie(*family, RandomVector(4000));
    std::vector<uint64_t> codes_dup;
    ASSERT_TRUE(family->AppendLshCodes(*duplicate, &codes_dup).ok());
    EXPECT_EQ(codes_a, codes_dup);

    // Append accumulates rather than clearing.
    ASSERT_TRUE(family->AppendLshCodes(*b, &codes_a).ok());
    EXPECT_EQ(codes_a.size(), 2 * kOddSamples);
  }
}

TEST(BandingFamiliesTest, NonBandingFamiliesRefuseCodes) {
  for (const char* name : {"kmv", "cs", "jl"}) {
    SCOPED_TRACE(name);
    auto family = MakeFamilyOrDie({name, {}});
    EXPECT_FALSE(family->supports_banding());
    std::vector<uint64_t> codes;
    const auto sketch = SketchOrDie(*family, RandomVector(5000));
    EXPECT_EQ(family->AppendLshCodes(*sketch, &codes).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_TRUE(codes.empty());
  }
}

TEST(BandingFamiliesTest, RegistryBandingFlagsMatchTheSamplingFamilies) {
  for (const FamilyInfo& info : RegisteredFamilies()) {
    const bool expected = info.name == "wmh" || info.name == "icws" ||
                          info.name == "mh" || info.name == "wmh_compact" ||
                          info.name == "wmh_bbit";
    EXPECT_EQ(info.supports_banding, expected) << info.name;
  }
}

}  // namespace
}  // namespace ipsketch
