// Saturation behaviour of the sketch service: an open-loop load generator
// offers a mixed ingest + TopK workload at multiples of the measured
// single-thread TopK rate and reports the client-observed latency
// percentiles at each offered-concurrency level — the measurement half of
// the async-front-door roadmap item. Open loop means arrivals are scheduled
// on a clock, not gated on completions, so queueing delay is charged to the
// operations that suffered it (no coordinated omission: latency runs from
// an op's *scheduled* arrival to its completion).
//
//   build/bench_saturation [scale] [--smoke] [--frontdoor] [--out PATH]
//                          [--metrics-out PATH] [--seed N]
//
//   --smoke        tiny corpus and short windows (CI-sized, a few seconds)
//   --frontdoor    drive the same sweep through the async FrontDoor instead
//                  of direct engine calls: completed-request percentiles
//                  plus shed/expired counts per level, written as a
//                  "saturation_async" section
//   --seed         base seed for the sketch family (default 7)
//   --out          BENCH json path (default BENCH_service.json). The run
//                  writes only its own members through bench::WriteMembers,
//                  the record's one writer: "saturation" and "metrics", or
//                  with --frontdoor "saturation_async" and "metrics". Every
//                  other member, the other mode's sweep included, is kept,
//                  so the runs may come in any order
//   --metrics-out  also write the post-run metrics::RenderText() snapshot
//
// Each level records its sample counts (topk_n, ingest_n) and reports a
// percentile only when at least ten samples rank beyond it, the rule
// servicebench applies; otherwise the record holds null and the table "—".
// A smoke level offers at most 300 operations, so its p99s are null.
//
// No gate reads the sweep: tools/check_bench_regression.py prints its TopK
// p99 trends against the committed baseline without failing on them.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/status.h"
#include "service/front_door.h"
#include "service/metrics.h"
#include "service/query_engine.h"
#include "service/sketch_store.h"
#include "service/thread_pool.h"

using namespace ipsketch;

namespace {

constexpr size_t kTopK = 10;
// Every kIngestEvery-th offered op is an ingest (1/8 = 12.5% write mix);
// ingest ids cycle over a small range so the store size — and with it the
// TopK scan cost — stays constant across levels.
constexpr size_t kIngestEvery = 8;
constexpr size_t kIngestIdRange = 64;

// Base seed (--seed) — governs the sketch-family randomness.
uint64_t g_seed = 7;

// A percentile is reported only when at least this many samples rank
// beyond it — servicebench's rule — so a smoke level's p99 is not its
// maximum under another name.
constexpr size_t kMinSamplesBeyond = 10;

/// The q-th percentile of `sorted_ns` by nearest rank, ceil(q·n / 100), in
/// µs; nullopt unless kMinSamplesBeyond samples rank beyond it.
std::optional<double> PercentileUs(const std::vector<uint64_t>& sorted_ns,
                                   double q) {
  const size_t n = sorted_ns.size();
  if (n == 0) return std::nullopt;
  const auto rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(n) / 100.0)), 1,
      n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  return static_cast<double>(sorted_ns[rank - 1]) / 1000.0;
}

/// One request class's latencies at one level. A percentile the samples
/// cannot support, and the maximum of no samples, are nullopt: `null` in
/// the record, "—" in the table.
struct LatencyDigest {
  std::optional<double> p50_us, p95_us, p99_us, max_us;
  size_t n = 0;
};

LatencyDigest Digest(std::vector<uint64_t>* values_ns) {
  std::sort(values_ns->begin(), values_ns->end());
  LatencyDigest d;
  d.n = values_ns->size();
  d.p50_us = PercentileUs(*values_ns, 50);
  d.p95_us = PercentileUs(*values_ns, 95);
  d.p99_us = PercentileUs(*values_ns, 99);
  if (d.n != 0) d.max_us = static_cast<double>(values_ns->back()) / 1000.0;
  return d;
}

/// `us` as a JSON number, or null.
std::string JsonUs(const std::optional<double>& us) {
  return us.has_value() ? bench::Format("%.1f", *us) : "null";
}

/// `us` as a table cell ("123us", or "—"), right-aligned to `width`
/// columns.
std::string CellUs(const std::optional<double>& us, size_t width) {
  const std::string text =
      us.has_value() ? bench::Format("%.0fus", *us) : "—";
  const size_t columns = us.has_value() ? text.size() : 1;  // "—" is 3 bytes
  return std::string(width > columns ? width - columns : 0, ' ') + text;
}

/// One offered-concurrency level of the sweep.
struct LevelResult {
  double offered_concurrency = 0.0;
  double offered_per_sec = 0.0;
  double achieved_per_sec = 0.0;
  LatencyDigest topk;
  LatencyDigest ingest;
};

/// Runs one open-loop level: `num_ops` arrivals at `offered_per_sec`,
/// every kIngestEvery-th an ingest, the rest TopK, executed on `pool`.
LevelResult RunLevel(const SketchStore& store, SketchStore* ingest_store,
                     ThreadPool* pool, const std::vector<SparseVector>& queries,
                     double offered_per_sec, double offered_concurrency,
                     size_t num_ops) {
  // The engine runs serially inside each pool task — concurrency comes from
  // the open-loop generator keeping several tasks in flight, which is the
  // front-door shape this bench models.
  QueryEngine engine(&store, /*pool=*/nullptr);

  std::vector<uint64_t> latency_ns(num_ops, 0);
  std::vector<uint8_t> is_ingest(num_ops, 0);
  std::atomic<size_t> remaining{num_ops};

  const auto start = std::chrono::steady_clock::now();
  const uint64_t start_ns = metrics::NowNs();
  for (size_t i = 0; i < num_ops; ++i) {
    const double offset_secs = static_cast<double>(i) / offered_per_sec;
    const uint64_t scheduled_ns =
        start_ns + static_cast<uint64_t>(offset_secs * 1e9);
    std::this_thread::sleep_until(
        start + std::chrono::duration<double>(offset_secs));
    const bool ingest_op = (i % kIngestEvery) == kIngestEvery - 1;
    is_ingest[i] = ingest_op ? 1 : 0;
    const auto op = [&, i, scheduled_ns, ingest_op] {
      const SparseVector& vec = queries[i % queries.size()];
      if (ingest_op) {
        const uint64_t id = (1u << 20) | (i % kIngestIdRange);
        if (!ingest_store->BuildAndInsert(id, vec).ok()) std::exit(1);
      } else {
        if (!engine.TopK(vec, kTopK).ok()) std::exit(1);
      }
      latency_ns[i] = metrics::NowNs() - scheduled_ns;
      remaining.fetch_sub(1, std::memory_order_release);
    };
    // A stopping pool cannot happen here; run inline if it ever does so the
    // remaining count still drains.
    if (!pool->Submit(op)) op();
  }
  while (remaining.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double secs = bench::SecondsSince(start);

  std::vector<uint64_t> topk_ns, ingest_ns;
  topk_ns.reserve(num_ops);
  for (size_t i = 0; i < num_ops; ++i) {
    (is_ingest[i] ? ingest_ns : topk_ns).push_back(latency_ns[i]);
  }
  LevelResult result;
  result.offered_concurrency = offered_concurrency;
  result.offered_per_sec = offered_per_sec;
  result.achieved_per_sec = static_cast<double>(num_ops) / secs;
  result.topk = Digest(&topk_ns);
  result.ingest = Digest(&ingest_ns);
  return result;
}

/// One offered-concurrency level of the async (--frontdoor) sweep. The
/// latency digests cover completed requests only; overload shows up in the
/// shed/expired counts instead of in unbounded percentiles.
struct AsyncLevelResult {
  double offered_concurrency = 0.0;
  double offered_per_sec = 0.0;
  double achieved_per_sec = 0.0;
  LatencyDigest topk;
  LatencyDigest ingest;
  size_t shed = 0;
  size_t expired = 0;
  size_t errors = 0;
};

/// Runs one open-loop level through the front door: TopK arrivals submit
/// via the callback form (latency runs from the op's scheduled arrival to
/// its completion callback), ingest arrivals write the store directly on
/// the pool exactly as in the sync sweep.
AsyncLevelResult RunFrontDoorLevel(FrontDoor* door, SketchStore* ingest_store,
                                   ThreadPool* pool,
                                   const std::vector<SparseVector>& queries,
                                   double offered_per_sec,
                                   double offered_concurrency,
                                   size_t num_ops) {
  std::vector<uint64_t> latency_ns(num_ops, 0);
  // Per-op outcome, written once by whichever thread resolves the op:
  // 1 = completed TopK, 2 = ingest, 3 = shed, 4 = expired, 5 = error.
  std::vector<uint8_t> outcome(num_ops, 0);
  std::atomic<size_t> remaining{num_ops};

  const auto start = std::chrono::steady_clock::now();
  const uint64_t start_ns = metrics::NowNs();
  for (size_t i = 0; i < num_ops; ++i) {
    const double offset_secs = static_cast<double>(i) / offered_per_sec;
    const uint64_t scheduled_ns =
        start_ns + static_cast<uint64_t>(offset_secs * 1e9);
    std::this_thread::sleep_until(
        start + std::chrono::duration<double>(offset_secs));
    const bool ingest_op = (i % kIngestEvery) == kIngestEvery - 1;
    if (ingest_op) {
      const auto op = [&, i, scheduled_ns] {
        const uint64_t id = (1u << 20) | (i % kIngestIdRange);
        if (!ingest_store->BuildAndInsert(id, queries[i % queries.size()])
                 .ok()) {
          std::exit(1);
        }
        latency_ns[i] = metrics::NowNs() - scheduled_ns;
        outcome[i] = 2;
        remaining.fetch_sub(1, std::memory_order_release);
      };
      if (!pool->Submit(op)) op();
    } else {
      door->SubmitTopK(
          queries[i % queries.size()], kTopK,
          [&, i, scheduled_ns](FrontDoor::TopKResult r) {
            if (r.ok()) {
              latency_ns[i] = metrics::NowNs() - scheduled_ns;
              outcome[i] = 1;
            } else if (r.status().code() == StatusCode::kUnavailable) {
              outcome[i] = 3;
            } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
              outcome[i] = 4;
            } else {
              outcome[i] = 5;
            }
            remaining.fetch_sub(1, std::memory_order_release);
          });
    }
  }
  while (remaining.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double secs = bench::SecondsSince(start);

  AsyncLevelResult result;
  std::vector<uint64_t> topk_ns, ingest_ns;
  topk_ns.reserve(num_ops);
  for (size_t i = 0; i < num_ops; ++i) {
    switch (outcome[i]) {
      case 1: topk_ns.push_back(latency_ns[i]); break;
      case 2: ingest_ns.push_back(latency_ns[i]); break;
      case 3: ++result.shed; break;
      case 4: ++result.expired; break;
      default: ++result.errors; break;
    }
  }
  result.offered_concurrency = offered_concurrency;
  result.offered_per_sec = offered_per_sec;
  result.achieved_per_sec = static_cast<double>(num_ops) / secs;
  result.topk = Digest(&topk_ns);
  result.ingest = Digest(&ingest_ns);
  return result;
}

/// The two digests' members of one level record: sample counts, then
/// each class's percentiles and maximum.
std::string DigestJson(const LatencyDigest& topk,
                       const LatencyDigest& ingest) {
  return bench::Format(
      "       \"topk_n\": %zu, \"ingest_n\": %zu,\n"
      "       \"topk_p50_us\": %s, \"topk_p95_us\": %s, "
      "\"topk_p99_us\": %s, \"topk_max_us\": %s,\n"
      "       \"ingest_p50_us\": %s, \"ingest_p95_us\": %s, "
      "\"ingest_p99_us\": %s, \"ingest_max_us\": %s}",
      topk.n, ingest.n, JsonUs(topk.p50_us).c_str(),
      JsonUs(topk.p95_us).c_str(), JsonUs(topk.p99_us).c_str(),
      JsonUs(topk.max_us).c_str(), JsonUs(ingest.p50_us).c_str(),
      JsonUs(ingest.p95_us).c_str(), JsonUs(ingest.p99_us).c_str(),
      JsonUs(ingest.max_us).c_str());
}

void AppendLevelJson(std::string* out, const LevelResult& r, bool first) {
  *out += bench::Format(
      "%s\n      {\"offered_concurrency\": %.2f, \"offered_per_sec\": %.1f, "
      "\"achieved_per_sec\": %.1f, \"ops\": %zu,\n",
      first ? "" : ",", r.offered_concurrency, r.offered_per_sec,
      r.achieved_per_sec, r.topk.n + r.ingest.n);
  *out += DigestJson(r.topk, r.ingest);
}

/// The sync sweep's members: "saturation" and the end-of-run "metrics"
/// snapshot.
std::vector<bench::JsonMember> SyncMembers(
    const std::vector<LevelResult>& levels, size_t corpus, double base_rate) {
  std::string saturation = bench::Format(
      "{\n"
      "    \"corpus\": %zu,\n"
      "    \"mix_ingest_fraction\": %.4f,\n"
      "    \"base_topk_per_sec\": %.1f,\n"
      "    \"levels\": [",
      corpus, 1.0 / kIngestEvery, base_rate);
  for (size_t i = 0; i < levels.size(); ++i) {
    AppendLevelJson(&saturation, levels[i], i == 0);
  }
  saturation += "\n    ]\n  }";
  return {
      {"saturation", saturation},
      {"metrics", metrics::MetricsRegistry::Global().RenderJson()},
  };
}

void AppendAsyncLevelJson(std::string* out, const AsyncLevelResult& r,
                          bool first) {
  *out += bench::Format(
      "%s\n      {\"offered_concurrency\": %.2f, \"offered_per_sec\": %.1f, "
      "\"achieved_per_sec\": %.1f, \"ops\": %zu,\n"
      "       \"shed\": %zu, \"expired\": %zu, \"errors\": %zu,\n",
      first ? "" : ",", r.offered_concurrency, r.offered_per_sec,
      r.achieved_per_sec,
      r.topk.n + r.ingest.n + r.shed + r.expired + r.errors, r.shed,
      r.expired, r.errors);
  *out += DigestJson(r.topk, r.ingest);
}

/// The --frontdoor sweep's members: "saturation_async" and the end-of-run
/// "metrics" snapshot.
std::vector<bench::JsonMember> AsyncMembers(
    const std::vector<AsyncLevelResult>& levels, size_t corpus,
    double base_rate, const FrontDoorOptions& options) {
  std::string saturation = bench::Format(
      "{\n"
      "    \"corpus\": %zu,\n"
      "    \"mix_ingest_fraction\": %.4f,\n"
      "    \"base_topk_per_sec\": %.1f,\n"
      "    \"max_queue_depth\": %zu,\n"
      "    \"max_batch\": %zu,\n"
      "    \"levels\": [",
      corpus, 1.0 / kIngestEvery, base_rate, options.max_queue_depth,
      FrontDoor::kMaxBatch);
  for (size_t i = 0; i < levels.size(); ++i) {
    AppendAsyncLevelJson(&saturation, levels[i], i == 0);
  }
  saturation += "\n    ]\n  }";
  return {
      {"saturation_async", saturation},
      {"metrics", metrics::MetricsRegistry::Global().RenderJson()},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const size_t scale = bench::ScaleFromArgs(argc, argv);
  const bool smoke = bench::HasFlag(argc, argv, "--smoke");
  const bool frontdoor = bench::HasFlag(argc, argv, "--frontdoor");
  g_seed = bench::SeedFromArgs(argc, argv, g_seed);
  bench::Banner("saturation",
                frontdoor
                    ? "Open-loop ingest+TopK load sweep through the async "
                      "FrontDoor: completed-request latency percentiles plus "
                      "shed/expired counts vs offered concurrency"
                    : "Open-loop ingest+TopK load sweep: client-observed "
                      "latency percentiles vs offered concurrency",
                scale);
  std::printf("hardware_concurrency: %u%s%s\n\n",
              std::thread::hardware_concurrency(), smoke ? "  [smoke]" : "",
              frontdoor ? "  [frontdoor]" : "");

  const size_t corpus = smoke ? 120 : 600 * scale;
  const double level_window_secs = smoke ? 0.25 : 1.5;
  const size_t max_ops_per_level = smoke ? 300 : 6000;
  const double base_window_secs = smoke ? 0.1 : 0.3;

  auto store = SketchStore::Make(bench::ServiceStoreOptions(g_seed)).value();
  {
    std::vector<std::pair<uint64_t, SparseVector>> batch;
    batch.reserve(corpus);
    for (uint64_t id = 0; id < corpus; ++id) {
      batch.push_back({id, bench::ServiceVector(id)});
    }
    ThreadPool pool(4);
    if (!store.BuildAndInsertBatch(batch, &pool).ok()) {
      std::printf("ingest failed\n");
      return 1;
    }
  }
  std::vector<SparseVector> queries;
  for (size_t q = 0; q < 32; ++q) {
    queries.push_back(bench::ServiceVector(1000000 + q));
  }
  std::printf("corpus: %zu vectors, dim %llu, %zu nnz, family %s, m = %zu\n",
              corpus, static_cast<unsigned long long>(bench::kServiceDimension),
              bench::kServiceNnz, bench::kServiceFamily,
              bench::kServiceNumSamples);

  // --- saturation sweep -----------------------------------------------------
  // Base rate: sustained serial TopK throughput over one window, after a
  // warm-up window. Offered load at level c is c times that — level 1
  // should keep one worker busy, higher levels queue.
  const QueryEngine serial_engine(&store, /*pool=*/nullptr);
  const auto serial_topk = [&](size_t call) {
    if (!serial_engine.TopK(queries[call % queries.size()], kTopK).ok()) {
      std::exit(1);
    }
  };
  bench::SustainedRate(base_window_secs, serial_topk);  // warm up
  const double base_rate = bench::SustainedRate(base_window_secs, serial_topk);
  std::printf("base serial TopK rate: %.1f queries/sec\n\n", base_rate);

  const size_t pool_threads =
      std::min<size_t>(8, std::max(2u, std::thread::hardware_concurrency()));
  auto ingest_store =
      SketchStore::Make(bench::ServiceStoreOptions(g_seed)).value();
  std::vector<bench::JsonMember> members;
  if (frontdoor) {
    const FrontDoorOptions fd_options;  // stock knobs: depth 256, batch 32
    std::printf("front door: max_queue_depth %zu, max_batch %zu\n\n",
                fd_options.max_queue_depth, FrontDoor::kMaxBatch);
    std::vector<AsyncLevelResult> levels;
    std::printf("%-12s %12s %12s %10s %10s %10s %8s %8s\n", "offered_conc",
                "offered/s", "achieved/s", "topk_p50", "topk_p95",
                "topk_p99", "shed", "expired");
    for (double level : {0.5, 1.0, 2.0, 4.0, 8.0}) {
      const double offered = level * base_rate;
      const size_t num_ops = std::min(
          max_ops_per_level,
          std::max<size_t>(50, static_cast<size_t>(offered *
                                                   level_window_secs)));
      // A fresh pool and front door per level (declared in this order so
      // the door — whose destructor drains in-flight batches — dies first)
      // keep shed/expired counts attributable to one level.
      ThreadPool pool(pool_threads);
      FrontDoor door(&store, &pool, fd_options);
      AsyncLevelResult r = RunFrontDoorLevel(&door, &ingest_store, &pool,
                                             queries, offered, level,
                                             num_ops);
      std::printf("%-12.1f %12.1f %12.1f %s %s %s %8zu %8zu\n", level,
                  r.offered_per_sec, r.achieved_per_sec,
                  CellUs(r.topk.p50_us, 10).c_str(),
                  CellUs(r.topk.p95_us, 10).c_str(),
                  CellUs(r.topk.p99_us, 10).c_str(), r.shed, r.expired);
      levels.push_back(r);
    }
    members = AsyncMembers(levels, corpus, base_rate, fd_options);
  } else {
    std::vector<LevelResult> levels;
    std::printf("%-12s %12s %12s %10s %10s %10s %12s\n", "offered_conc",
                "offered/s", "achieved/s", "topk_p50", "topk_p95",
                "topk_p99", "ingest_p99");
    // 0.5 gives an under-saturated anchor point even on a single-core box
    // (where generator + worker share the core and capacity sits below
    // 1.0).
    for (double level : {0.5, 1.0, 2.0, 4.0, 8.0}) {
      const double offered = level * base_rate;
      const size_t num_ops = std::min(
          max_ops_per_level,
          std::max<size_t>(50, static_cast<size_t>(offered *
                                                   level_window_secs)));
      ThreadPool pool(pool_threads);
      LevelResult r = RunLevel(store, &ingest_store, &pool, queries, offered,
                               level, num_ops);
      std::printf("%-12.1f %12.1f %12.1f %s %s %s %s\n", level,
                  r.offered_per_sec, r.achieved_per_sec,
                  CellUs(r.topk.p50_us, 10).c_str(),
                  CellUs(r.topk.p95_us, 10).c_str(),
                  CellUs(r.topk.p99_us, 10).c_str(),
                  CellUs(r.ingest.p99_us, 12).c_str());
      levels.push_back(r);
    }
    members = SyncMembers(levels, corpus, base_rate);
  }

  // --- outputs --------------------------------------------------------------
  const std::string json_path =
      bench::FlagValue(argc, argv, "--out", "BENCH_service.json");
  if (!bench::WriteMembers(json_path, members)) return 1;

  const std::string metrics_path =
      bench::FlagValue(argc, argv, "--metrics-out");
  if (!metrics_path.empty()) {
    const std::string text = metrics::MetricsRegistry::Global().RenderText();
    if (std::FILE* f = std::fopen(metrics_path.c_str(), "wb")) {
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      std::printf("wrote %s\n", metrics_path.c_str());
    } else {
      std::printf("could not write %s\n", metrics_path.c_str());
      return 1;
    }
  }
  return 0;
}
