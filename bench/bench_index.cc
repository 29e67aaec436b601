// Sublinear top-k through the LSH-banded index: banded-re-rank queries/sec
// against the exact scan over the same store, plus measured recall@10, per
// (bands, rows) point — the acceptance evidence for the src/index/
// subsystem (≥5x throughput at ≥50k sketches with recall@10 ≥ 0.9 at a
// documented (b, r)).
//
//   build/bench_index [scale] [--smoke] [--out PATH] [--seed N]
//
//   --smoke   small corpus (CI-sized, a few seconds); points are keyed by
//             corpus size so smoke and full results coexist in the JSON
//   --seed    base seed for data and sketches (default 7)
//
// The corpus mixes planted clusters with noise: kNumClusters query vectors
// each get kClusterSize near-duplicates (same support, jittered values)
// stored alongside random background vectors, so the exact top-10 for a
// query is its cluster — a recall target the banding filter must actually
// work to hit, unlike pure-noise corpora where top-10 is arbitrary.
//
// Writes the "index" member of the BENCH json (default BENCH_service.json;
// --out overrides) through bench::WriteMembers, the record's one writer:
// the record's other members are kept, and a re-run replaces only "index".
// tools/check_bench_regression.py gates the banded-vs-exact speedup per
// (bands, rows, corpus) point and reports recall informationally.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "index/banded_index.h"
#include "service/metrics.h"
#include "service/query_engine.h"
#include "service/sketch_store.h"
#include "service/thread_pool.h"

using namespace ipsketch;

namespace {

constexpr uint64_t kDimension = 8192;
constexpr size_t kNnz = 64;
constexpr size_t kNumSamples = 128;
constexpr char kFamily[] = "wmh";
constexpr size_t kTopK = 10;
constexpr size_t kNumClusters = 32;
constexpr size_t kClusterSize = 16;

// Base seed (--seed) — governs data and sketch randomness.
uint64_t g_seed = 7;

/// Member `member` of cluster `cluster`: the cluster's base support and
/// values with ±5% per-member value jitter, so weighted Jaccard within a
/// cluster stays high (~0.9) while noise pairs sit near zero. member 0 is
/// reserved for the query.
SparseVector ClusterVector(uint64_t cluster, uint64_t member) {
  const uint64_t base_seed = Mix64(g_seed ^ (cluster + 1));
  Xoshiro256StarStar base_rng(base_seed);
  Xoshiro256StarStar jitter_rng(Mix64(base_seed ^ (member + 1)));
  std::vector<Entry> entries;
  for (uint64_t index : SampleDistinctIndices(kDimension, kNnz, base_seed)) {
    double v = base_rng.NextUnit() * 2.0 - 1.0;
    v *= 1.0 + 0.05 * (jitter_rng.NextUnit() * 2.0 - 1.0);
    entries.push_back({index, v});
  }
  return SparseVector::MakeOrDie(kDimension, std::move(entries));
}

/// Background vector `i`: independent random support and values.
SparseVector NoiseVector(uint64_t i) {
  const uint64_t seed = Mix64(g_seed ^ 0xB0B0B0B0u) + i;
  Xoshiro256StarStar rng(seed);
  std::vector<Entry> entries;
  for (uint64_t index : SampleDistinctIndices(kDimension, kNnz, seed)) {
    entries.push_back({index, rng.NextUnit() * 2.0 - 1.0});
  }
  return SparseVector::MakeOrDie(kDimension, std::move(entries));
}

SketchStoreOptions StoreOptions() {
  SketchStoreOptions options;
  options.family = kFamily;
  options.sketch.dimension = kDimension;
  options.sketch.num_samples = kNumSamples;
  options.sketch.seed = g_seed;
  options.num_shards = 32;
  return options;
}

/// Sustained serial TopK rate of `engine` over `queries`, cycling, for
/// ≥ `window_secs`; adds the queries run to `*done` when non-null.
double TopkRate(const QueryEngine& engine,
                const std::vector<SparseVector>& queries, double window_secs,
                size_t* done = nullptr) {
  return bench::SustainedRate(window_secs, [&](size_t call) {
    if (!engine.TopK(queries[call % queries.size()], kTopK).ok()) {
      std::printf("TopK failed\n");
      std::exit(1);
    }
    if (done != nullptr) ++*done;
  });
}

/// One measured (bands, rows) point.
struct IndexPoint {
  size_t bands = 0;
  size_t rows = 0;
  size_t corpus = 0;
  double exact_per_sec = 0.0;
  double banded_per_sec = 0.0;
  double recall = 0.0;
  double candidates_per_query = 0.0;
};

/// The value of the record's "index" member.
std::string IndexJson(const std::vector<IndexPoint>& points) {
  std::string out = bench::Format(
      "{\n"
      "    \"family\": \"%s\",\n"
      "    \"num_samples\": %zu,\n"
      "    \"top_k\": %zu,\n"
      "    \"queries\": %zu,\n"
      "    \"points\": [",
      kFamily, kNumSamples, kTopK, kNumClusters);
  for (size_t i = 0; i < points.size(); ++i) {
    const IndexPoint& p = points[i];
    out += bench::Format(
        "%s\n      {\"bands\": %zu, \"rows\": %zu, \"corpus\": %zu, "
        "\"exact_per_sec\": %.1f, \"banded_per_sec\": %.1f, "
        "\"speedup\": %.2f,\n       \"recall_at_10\": %.4f, "
        "\"candidates_per_query\": %.1f}",
        i == 0 ? "" : ",", p.bands, p.rows, p.corpus, p.exact_per_sec,
        p.banded_per_sec,
        p.exact_per_sec > 0 ? p.banded_per_sec / p.exact_per_sec : 0.0,
        p.recall, p.candidates_per_query);
  }
  return out + "\n    ]\n  }";
}

uint64_t CandidatesCounter() {
  return metrics::MetricsRegistry::Global()
      .GetCounter("ipsketch_index_candidates_total", "")
      .Value();
}

}  // namespace

int main(int argc, char** argv) {
  const size_t scale = bench::ScaleFromArgs(argc, argv);
  const bool smoke = bench::HasFlag(argc, argv, "--smoke");
  g_seed = bench::SeedFromArgs(argc, argv, g_seed);
  bench::Banner("index",
                "LSH-banded top-k vs exact scan: queries/sec and recall@10 "
                "per (bands, rows) over a planted-cluster corpus",
                scale);

  const size_t corpus = smoke ? 4000 : 50000 * scale;
  const double window_secs = smoke ? 0.2 : 1.0;
  const size_t planted = kNumClusters * kClusterSize;
  if (corpus < planted) {
    std::printf("corpus %zu smaller than the planted clusters (%zu)\n",
                corpus, planted);
    return 1;
  }

  auto store = SketchStore::Make(StoreOptions()).value();
  {
    std::vector<std::pair<uint64_t, SparseVector>> batch;
    batch.reserve(corpus);
    uint64_t id = 1;
    for (uint64_t c = 0; c < kNumClusters; ++c) {
      for (uint64_t j = 1; j <= kClusterSize; ++j) {
        batch.push_back({id++, ClusterVector(c, j)});
      }
    }
    for (uint64_t i = 0; id <= corpus; ++i) {
      batch.push_back({id++, NoiseVector(i)});
    }
    ThreadPool pool(4);
    if (!store.BuildAndInsertBatch(batch, &pool).ok()) {
      std::printf("ingest failed\n");
      return 1;
    }
  }
  std::vector<SparseVector> queries;
  for (uint64_t c = 0; c < kNumClusters; ++c) {
    queries.push_back(ClusterVector(c, 0));
  }
  std::printf("corpus: %zu vectors (%zu planted in %zu clusters), dim %llu, "
              "%zu nnz, family %s, m = %zu%s\n\n",
              corpus, planted, kNumClusters,
              static_cast<unsigned long long>(kDimension), kNnz, kFamily,
              kNumSamples, smoke ? "  [smoke]" : "");

  // The exact-scan reference rate: one serial engine, no index.
  QueryEngine exact(&store, /*pool=*/nullptr);
  TopkRate(exact, queries, window_secs);  // warm up
  const double exact_per_sec = TopkRate(exact, queries, window_secs);
  std::printf("exact scan: %.1f queries/sec\n\n", exact_per_sec);

  const std::vector<BandedLshParams> sweep = {
      {8, 8}, {16, 8}, {16, 4}, {32, 4}};
  std::vector<IndexPoint> points;
  std::printf("%-6s %-6s %14s %9s %12s %12s\n", "bands", "rows", "banded/s",
              "speedup", "recall@10", "cands/query");
  for (const BandedLshParams& params : sweep) {
    auto index = BandedIndex::MakeAttached(&store, params);
    if (!index.ok()) {
      std::printf("index build failed: %s\n",
                  index.status().ToString().c_str());
      return 1;
    }
    QueryEngine banded(&store, /*pool=*/nullptr, index.value().get(),
                       IndexPolicy::kBandedRerank);

    IndexPoint point;
    point.bands = params.bands;
    point.rows = params.rows;
    point.corpus = corpus;
    point.exact_per_sec = exact_per_sec;
    const uint64_t cands_before = CandidatesCounter();
    size_t done = 0;
    point.banded_per_sec = TopkRate(banded, queries, window_secs, &done);
    point.candidates_per_query =
        static_cast<double>(CandidatesCounter() - cands_before) /
        static_cast<double>(done);

    double recall_sum = 0.0;
    for (const SparseVector& query : queries) {
      auto recall = banded.ProbeRecall(query, kTopK);
      if (!recall.ok()) {
        std::printf("recall probe failed\n");
        return 1;
      }
      recall_sum += recall.value();
    }
    point.recall = recall_sum / static_cast<double>(queries.size());

    std::printf("%-6zu %-6zu %14.1f %8.1fx %12.4f %12.1f\n", point.bands,
                point.rows, point.banded_per_sec,
                point.banded_per_sec / exact_per_sec, point.recall,
                point.candidates_per_query);
    points.push_back(point);
  }

  const std::string json_path =
      bench::FlagValue(argc, argv, "--out", "BENCH_service.json");
  if (!bench::WriteMembers(json_path, {{"index", IndexJson(points)}})) {
    return 1;
  }
  return 0;
}
