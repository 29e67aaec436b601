// Service-layer throughput: vectors/sec for batch ingest into a SketchStore
// per WMH engine on one thread, queries/sec for QueryEngine::TopK at 1/2/4/8
// worker threads, serial exact-scan TopKSketchBatch µs per query at batch
// 1/8/32, and pairwise estimate throughput per family under the dispatched
// SIMD kernel vs the scalar tier.
//
//   build/bench_service_throughput [scale] [--out PATH] [--seed N]
//
// Queries parallelize over shards. Speedups track the machine's core count
// — hardware_concurrency is printed so single-core results read correctly,
// and a point with more threads than that is marked oversubscribed: it
// measures time-slicing, not scaling.
//
// Besides the human-readable table, the bench writes the record-level
// members of BENCH_service.json (default path; --out overrides): the
// dispatched kernel name, hardware_concurrency, the corpus, and the
// machine-readable rates. The batch points (topk_batch_us_per_query) are
// informational: the gate does not read them and the committed baseline
// has none. bench_index and bench_saturation add their own
// sections to the same record through the same writer
// (bench::WriteMembers), in any order; a re-run replaces only this
// bench's members. tools/check_bench_regression.py diffs the estimate
// throughput against the committed baseline in bench/baselines/.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/simd/dispatch.h"
#include "service/query_engine.h"
#include "service/sketch_store.h"
#include "service/thread_pool.h"
#include "sketch/family.h"

using namespace ipsketch;

namespace {

// Base seed (--seed) — governs the sketch-family randomness.
uint64_t g_seed = 7;

/// True iff `threads` workers outnumber the machine's hardware threads, so
/// the point measures time-slicing rather than scaling.
bool Oversubscribed(size_t threads) {
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware != 0 && threads > hardware;
}

/// One measured (threads, rate) point.
struct RatePoint {
  size_t threads = 0;
  double per_sec = 0.0;
};

std::string RatesJson(const std::vector<RatePoint>& rates) {
  std::string out = "[";
  for (size_t i = 0; i < rates.size(); ++i) {
    out += bench::Format(
        "%s{\"threads\": %zu, \"per_sec\": %.1f, \"oversubscribed\": %s}",
        i == 0 ? "" : ", ", rates[i].threads, rates[i].per_sec,
        Oversubscribed(rates[i].threads) ? "true" : "false");
  }
  return out + "]";
}

/// One measured estimate-throughput point: pairwise estimates/sec for a
/// family at m samples, under the dispatched kernel and the scalar tier.
struct EstimatePoint {
  std::string family;
  size_t m = 0;
  double per_sec = 0.0;         // dispatched kernel
  double per_sec_scalar = 0.0;  // forced scalar tier
};

std::vector<EstimatePoint> MeasureEstimateThroughput() {
  struct Config {
    const char* family;
    size_t m;
  };
  // The acceptance configuration is WMH at m = 128; the rest show every
  // vectorized estimator family plus the m-scaling of the headline one.
  const std::vector<Config> configs = {
      {"wmh", 128},        {"wmh", 1024},      {"icws", 128},
      {"wmh_compact", 128}, {"wmh_bbit", 128}, {"mh", 128},
  };
  const size_t kCatalog = 256;
  std::vector<EstimatePoint> out;
  std::printf("\n%-18s %6s %16s %16s %9s   (kernel: %s)\n", "estimate",
              "m", "pairs/sec", "scalar pairs/sec", "speedup",
              simd::ActiveKernelName());
  for (const Config& config : configs) {
    FamilyOptions options;
    options.dimension = bench::kServiceDimension;
    options.num_samples = config.m;
    options.seed = g_seed;
    auto family = MakeFamily(config.family, options).value();
    auto sketcher = family->MakeSketcher().value();
    std::vector<std::unique_ptr<AnySketch>> catalog;
    catalog.reserve(kCatalog);
    for (size_t i = 0; i < kCatalog; ++i) {
      auto sketch = family->NewSketch();
      if (!sketcher->Sketch(bench::ServiceVector(i), sketch.get()).ok()) {
        std::printf("sketch failed\n");
        std::exit(1);
      }
      catalog.push_back(std::move(sketch));
    }
    auto query = family->NewSketch();
    if (!sketcher->Sketch(bench::ServiceVector(1 << 30), query.get()).ok()) {
      std::printf("sketch failed\n");
      std::exit(1);
    }
    // Sustained single-thread pairwise estimate rate over the resident
    // catalog, under `forced` (nullptr = dispatched kernel): the fastest of
    // five 0.1 s windows.
    double sink = 0.0;
    const auto pairs_per_sec = [&](const simd::EstimateKernel* forced) {
      simd::SetActiveKernelForTesting(forced);
      const double rate = bench::FastestRate(5, 0.1, [&](size_t) {
        for (const auto& sketch : catalog) {
          auto est = family->Estimate(*query, *sketch);
          if (!est.ok()) {
            std::printf("estimate failed: %s\n",
                        est.status().ToString().c_str());
            std::exit(1);
          }
          sink += est.value();
        }
      });
      simd::SetActiveKernelForTesting(nullptr);
      return rate * static_cast<double>(catalog.size());
    };
    EstimatePoint point;
    point.family = config.family;
    point.m = config.m;
    point.per_sec = pairs_per_sec(/*forced=*/nullptr);
    point.per_sec_scalar = pairs_per_sec(&simd::ScalarKernel());
    // Keep the accumulated estimates observable so the loop cannot be
    // optimized away.
    if (sink == 0.12345) std::printf("(unlikely sink value)\n");
    std::printf("%-18s %6zu %16.0f %16.0f %8.2fx\n", config.family, config.m,
                point.per_sec, point.per_sec_scalar,
                point.per_sec / point.per_sec_scalar);
    out.push_back(std::move(point));
  }
  return out;
}

/// One measured batch point: serial exact-scan TopKSketchBatch cost per
/// query at one batch size.
struct BatchPoint {
  size_t batch = 0;
  double us_per_query = 0.0;
};

/// Serial exact-scan TopKSketchBatch µs per query at batch 1, 8 and 32 over
/// `store`, cycling through the sketches of `vectors`' first 32: the scan's
/// per-shard scoring without the pool fan-out the TopK rates include. Batch
/// 1 is what a synchronous TopK pays; 32 is the FrontDoor's largest batch.
std::vector<BatchPoint> MeasureBatchScan(
    const SketchStore& store, const std::vector<SparseVector>& vectors) {
  const size_t kQueries = 32;
  auto sketcher = store.family().MakeSketcher().value();
  std::vector<std::unique_ptr<AnySketch>> sketches;
  for (size_t q = 0; q < kQueries; ++q) {
    sketches.push_back(store.family().NewSketch());
    if (!sketcher->Sketch(vectors[q % vectors.size()], sketches.back().get())
             .ok()) {
      std::printf("sketch failed\n");
      std::exit(1);
    }
  }
  const QueryEngine engine(&store);
  std::vector<BatchPoint> out;
  std::printf("\n%-22s %14s\n", "exact top-10, serial", "us/query");
  for (size_t batch : {1u, 8u, 32u}) {
    std::vector<const AnySketch*> queries(batch);
    const std::vector<size_t> ks(batch, 10);
    const double calls_per_sec = bench::FastestRate(5, 0.2, [&](size_t call) {
      for (size_t i = 0; i < batch; ++i) {
        queries[i] = sketches[(call * batch + i) % kQueries].get();
      }
      for (const auto& result : engine.TopKSketchBatch(queries, ks)) {
        if (!result.ok()) {
          std::printf("top-k failed: %s\n",
                      result.status().ToString().c_str());
          std::exit(1);
        }
      }
    });
    const double us_per_query =
        1e6 / (calls_per_sec * static_cast<double>(batch));
    std::printf("batch %-16zu %14.2f\n", batch, us_per_query);
    out.push_back({batch, us_per_query});
  }
  return out;
}

std::string BatchJson(const std::vector<BatchPoint>& points) {
  std::string out = "[";
  for (size_t i = 0; i < points.size(); ++i) {
    out += bench::Format("%s{\"batch\": %zu, \"us_per_query\": %.3f}",
                         i == 0 ? "" : ", ", points[i].batch,
                         points[i].us_per_query);
  }
  return out + "]";
}

std::string EstimateJson(const std::vector<EstimatePoint>& points) {
  std::string out = "[";
  for (size_t i = 0; i < points.size(); ++i) {
    out += bench::Format(
        "%s\n    {\"family\": \"%s\", \"m\": %zu, \"per_sec\": %.1f, "
        "\"per_sec_scalar\": %.1f, \"speedup\": %.3f}",
        i == 0 ? "" : ",", points[i].family.c_str(), points[i].m,
        points[i].per_sec, points[i].per_sec_scalar,
        points[i].per_sec / points[i].per_sec_scalar);
  }
  return out + "\n  ]";
}

}  // namespace

int main(int argc, char** argv) {
  const size_t scale = bench::ScaleFromArgs(argc, argv);
  g_seed = bench::SeedFromArgs(argc, argv, g_seed);
  bench::Banner("service_throughput",
                "SketchStore batch ingest at 1 thread and QueryEngine::TopK "
                "throughput at 1/2/4/8 threads",
                scale);
  std::printf("hardware_concurrency: %u\n",
              std::thread::hardware_concurrency());
  std::printf("estimate kernel: %s\n\n", simd::ActiveKernelName());

  const size_t corpus = 600 * scale;
  std::vector<std::pair<uint64_t, SparseVector>> batch;
  batch.reserve(corpus);
  for (uint64_t id = 0; id < corpus; ++id) {
    batch.push_back({id, bench::ServiceVector(id)});
  }
  std::printf("corpus: %zu vectors, dim %llu, %zu nnz, family %s, m = %zu\n\n",
              corpus, static_cast<unsigned long long>(bench::kServiceDimension),
              bench::kServiceNnz, bench::kServiceFamily,
              bench::kServiceNumSamples);

  // --- ingest, per WMH engine, on one thread --------------------------------
  // "dart" is the default ingest engine; "active_index" is kept as the
  // head-to-head baseline so the speedup is visible in every bench record.
  // Each rate is the fastest of `builds` fresh-store builds of the corpus,
  // sketched serially on this thread, as the estimate points take the
  // fastest of several windows. One active_index build of the scale-1
  // corpus takes about 14 s, so it is timed once. There are no thread
  // points: a shared host can stall a whole process's pool, which no best
  // of N builds inside one process mends; servicebench's setup_s times a
  // pooled BuildAndInsertBatch instead.
  struct Engine {
    const char* name;
    int builds;
  };
  const std::vector<Engine> kEngines = {{"dart", 5}, {"active_index", 1}};
  std::vector<double> ingest_rates(kEngines.size(), 0.0);
  std::printf("%-24s %14s\n", "ingest, 1 thread", "vectors/sec");
  for (size_t e = 0; e < kEngines.size(); ++e) {
    const auto options = bench::ServiceStoreOptions(g_seed, kEngines[e].name);
    for (int build = 0; build < kEngines[e].builds; ++build) {
      auto store = SketchStore::Make(options).value();
      const auto start = std::chrono::steady_clock::now();
      const Status st = store.BuildAndInsertBatch(batch, /*pool=*/nullptr);
      const double secs = bench::SecondsSince(start);
      if (!st.ok() || store.size() != corpus) {
        std::printf("ingest failed: %s\n", st.ToString().c_str());
        return 1;
      }
      ingest_rates[e] =
          std::max(ingest_rates[e], static_cast<double>(corpus) / secs);
    }
    std::printf("%-24s %14.0f  (fastest of %d build%s)\n",
                (std::string("ingest[") + kEngines[e].name + "]").c_str(),
                ingest_rates[e], kEngines[e].builds,
                kEngines[e].builds == 1 ? "" : "s");
  }
  const double dart_vs_active = ingest_rates[0] / ingest_rates[1];
  std::printf("single-thread dart vs active_index ingest: %.2fx\n\n",
              dart_vs_active);

  // --- queries --------------------------------------------------------------
  auto store = SketchStore::Make(bench::ServiceStoreOptions(g_seed)).value();
  {
    ThreadPool pool(4);
    if (!store.BuildAndInsertBatch(batch, &pool).ok()) return 1;
  }
  const size_t num_queries = 40 * scale;
  std::vector<SparseVector> queries;
  for (size_t q = 0; q < num_queries; ++q) {
    queries.push_back(bench::ServiceVector(1000000 + q));
  }

  std::vector<RatePoint> query_rates;
  std::printf("\n%-10s %14s %10s\n", "top-10", "queries/sec", "speedup");
  double base_rate = 0.0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    QueryEngine engine(&store, &pool);
    const auto start = std::chrono::steady_clock::now();
    for (const SparseVector& q : queries) {
      if (!engine.TopK(q, 10).ok()) return 1;
    }
    const double secs = bench::SecondsSince(start);
    const double rate = static_cast<double>(num_queries) / secs;
    if (threads == 1) base_rate = rate;
    query_rates.push_back({threads, rate});
    const char* mark = Oversubscribed(threads) ? "  oversubscribed" : "";
    std::printf("%zu threads  %14.1f %9.2fx%s\n", threads, rate,
                rate / base_rate, mark);
  }

  // --- serial exact-scan cost per query, by batch size ----------------------
  const std::vector<BatchPoint> batch_points = MeasureBatchScan(store, queries);

  // --- pairwise estimate throughput, dispatched kernel vs scalar ------------
  const std::vector<EstimatePoint> estimate_points =
      MeasureEstimateThroughput();

  // --- machine-readable record ---------------------------------------------
  // Only this bench writes the record-level members, "bench" through
  // "num_samples".
  const unsigned hardware = std::thread::hardware_concurrency();
  std::vector<bench::JsonMember> members;
  members.emplace_back("bench", "\"service_throughput\"");
  members.emplace_back("family",
                       bench::Format("\"%s\"", bench::kServiceFamily));
  members.emplace_back("hardware_concurrency", std::to_string(hardware));
  members.emplace_back("kernel",
                       bench::Format("\"%s\"", simd::ActiveKernelName()));
  members.emplace_back("scale", std::to_string(scale));
  members.emplace_back("corpus", std::to_string(corpus));
  members.emplace_back("num_samples",
                       std::to_string(bench::kServiceNumSamples));
  for (size_t e = 0; e < kEngines.size(); ++e) {
    members.emplace_back(
        std::string("ingest_vectors_per_sec_") + kEngines[e].name,
        RatesJson({{1, ingest_rates[e]}}));
  }
  members.emplace_back("ingest_dart_vs_active_index_1thread",
                       bench::Format("%.3f", dart_vs_active));
  members.emplace_back("topk_queries_per_sec", RatesJson(query_rates));
  members.emplace_back("topk_batch_us_per_query", BatchJson(batch_points));
  members.emplace_back("estimate_pairs_per_sec", EstimateJson(estimate_points));
  const std::string json_path =
      bench::FlagValue(argc, argv, "--out", "BENCH_service.json");
  return bench::WriteMembers(json_path, members) ? 0 : 1;
}
