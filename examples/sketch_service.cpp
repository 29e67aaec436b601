// The service layer end to end: ingest a corpus of sparse vectors into a
// sharded SketchStore with a thread pool, answer point estimates and top-k
// retrieval through a QueryEngine, and persist/reload the whole catalog —
// the dataset-search deployment shape the paper motivates (§1.2).
//
// The service is family-generic: the store is configured with a *family
// name* from the sketch/family.h registry, and the identical QueryEngine
// code serves a Weighted MinHash catalog and a CountSketch catalog side by
// side below.
//
//   build/example_sketch_service

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/synthetic.h"
#include "service/front_door.h"
#include "service/metrics.h"
#include "service/persistence.h"
#include "service/query_engine.h"
#include "service/sketch_store.h"
#include "service/thread_pool.h"
#include "vector/vector_ops.h"

using namespace ipsketch;

namespace {

constexpr uint64_t kDimension = 100000;
constexpr size_t kCorpusSize = 400;

// A corpus member: a random sparse vector over a large domain.
SparseVector CorpusVector(uint64_t dimension, uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<Entry> entries;
  for (uint64_t index : SampleDistinctIndices(dimension, 300, seed)) {
    entries.push_back({index, rng.NextUnit() * 2.0 - 1.0});
  }
  return SparseVector::MakeOrDie(dimension, std::move(entries));
}

SketchStoreOptions StoreOptions(const std::string& family) {
  SketchStoreOptions options;
  options.family = family;  // one-line swap: "wmh" <-> "cs" <-> "kmv" ...
  options.sketch.dimension = kDimension;
  options.sketch.num_samples = 256;
  options.sketch.seed = 7;
  options.num_shards = 16;
  return options;
}

}  // namespace

int main() {
  // 1. A store: 16 shards, a family picked by name from the registry,
  //    every sketch built with the same resolved options.
  SketchStore store = SketchStore::Make(StoreOptions("wmh")).value();
  std::printf("store: family %s, %zu shards, m = %zu, resolved options {%s}\n",
              store.family().name().c_str(), store.num_shards(),
              store.options().sketch.num_samples,
              FamilyOptionsToString(store.options().sketch).c_str());

  // 2. Batch ingest across a thread pool. Sketching dominates the cost and
  //    parallelizes across workers; shard locks are touched only to insert.
  std::vector<std::pair<uint64_t, SparseVector>> batch;
  for (uint64_t id = 0; id < kCorpusSize; ++id) {
    batch.push_back({id, CorpusVector(kDimension, id)});
  }
  ThreadPool pool(4);
  Status ingest = store.BuildAndInsertBatch(batch, &pool);
  std::printf("ingested %zu vectors across %zu threads: %s\n", store.size(),
              pool.num_threads(), ingest.ToString().c_str());

  // 3. Point estimate between two stored vectors — no raw vectors touched.
  QueryEngine engine(&store, &pool);
  std::printf("\n<v17, v42>: exact %.4f, from sketches %.4f\n",
              Dot(batch[17].second, batch[42].second),
              engine.EstimateInnerProduct(17, 42).value());

  // 4. Top-k retrieval: the query is sketched once, then every shard is
  //    scanned in parallel with a private heap per worker.
  const SparseVector query = CorpusVector(kDimension, 42);  // = vector 42
  std::printf("\ntop-5 by estimated inner product against (a copy of) v42:\n");
  const std::vector<QueryHit> top5 = engine.TopK(query, 5).value();
  for (const auto& hit : top5) {
    std::printf("  id %-4llu estimate %8.4f  (exact %8.4f)\n",
                static_cast<unsigned long long>(hit.id), hit.estimate,
                Dot(query, batch[hit.id].second));
  }

  // 5. The same queries, asynchronously: the FrontDoor admits concurrent
  //    callers into a bounded queue, coalesces them into batches that
  //    traverse the catalog once per batch over lock-free store snapshots,
  //    and sheds with Unavailable instead of queueing without bound under
  //    overload. Futures (and callbacks) resolve with exactly the answers
  //    the synchronous engine gives.
  {
    FrontDoor door(&store, &pool);
    FrontDoorFuture<double> pair = door.SubmitEstimate(17, 42);
    std::vector<FrontDoorFuture<std::vector<QueryHit>>> topks;
    for (int i = 0; i < 3; ++i) topks.push_back(door.SubmitTopK(query, 5));
    std::printf("\nasync <v17, v42>: %.4f (same as sync)\n",
                pair.Take().value());
    for (auto& f : topks) {
      if (f.Take().value()[0].id != top5[0].id) return 1;
    }
    std::printf("3 batched async top-5s agree with the synchronous scan\n");
  }

  // 6. The SAME service code, a different family: a CountSketch catalog.
  //    Only the family name in the options changed.
  SketchStore cs_store = SketchStore::Make(StoreOptions("cs")).value();
  if (!cs_store.BuildAndInsertBatch(batch, &pool).ok()) return 1;
  QueryEngine cs_engine(&cs_store, &pool);
  std::printf("\nsame corpus through a '%s' store (mergeable: %s):\n",
              cs_store.family().name().c_str(),
              cs_store.family().supports_merge() ? "yes" : "no");
  const std::vector<QueryHit> cs_top3 = cs_engine.TopK(query, 3).value();
  for (const auto& hit : cs_top3) {
    std::printf("  id %-4llu estimate %8.4f  (exact %8.4f)\n",
                static_cast<unsigned long long>(hit.id), hit.estimate,
                Dot(query, batch[hit.id].second));
  }

  // 7. Persist the whole catalog and reload it; estimates are
  //    byte-identical because sketches serialize as IEEE-754 bit patterns.
  //    LoadSketchStoreAs re-verifies the family tag and options, so a file
  //    from a differently-configured catalog is rejected, not mis-served.
  const std::string path = "/tmp/ipsketch_service_demo.store";
  if (!SaveSketchStore(store, path).ok()) {
    std::printf("\nsave failed\n");
    return 1;
  }
  SketchStore reloaded = LoadSketchStoreAs(path, StoreOptions("wmh")).value();
  QueryEngine engine2(&reloaded, &pool);
  std::printf("\nreloaded %zu sketches from %s\n", reloaded.size(),
              path.c_str());
  std::printf("<v17, v42> after reload: %.17g (before: %.17g)\n",
              engine2.EstimateInnerProduct(17, 42).value(),
              engine.EstimateInnerProduct(17, 42).value());
  const Status wrong = LoadSketchStoreAs(path, StoreOptions("cs")).status();
  std::printf("opening the file as a 'cs' store is refused: %s\n",
              wrong.ToString().c_str());
  std::remove(path.c_str());

  // 8. Compact catalogs: quantize the reloaded full-precision catalog
  //    (32-bit hashes + float32 values — exactly what the paper's §5
  //    accounting charges), halving the resident footprint. Ingest ran on
  //    the fast engine at full precision; quantization is a cheap
  //    post-pass into a new store, and the SAME QueryEngine code keeps
  //    serving. Nothing reads `reloaded` while the quantized copy is
  //    move-assigned over it.
  const double full_words = reloaded.TotalResidentWords();
  auto quantized = QuantizeStore(reloaded, "wmh_compact");
  if (!quantized.ok()) return 1;
  reloaded = std::move(quantized).value();
  const double compact_words = reloaded.TotalResidentWords();
  std::printf("\nquantized to '%s': %.0f -> %.0f resident words "
              "(%.2fx)\n",
              reloaded.family().name().c_str(), full_words, compact_words,
              compact_words / full_words);
  QueryEngine compact_engine(&reloaded, &pool);
  std::printf("<v17, v42> from the compact catalog: %.4f\n",
              compact_engine.EstimateInnerProduct(17, 42).value());
  const std::vector<QueryHit> compact_top3 =
      compact_engine.TopK(query, 3).value();
  std::printf("top-3 against v42 from the compact catalog:\n");
  for (const auto& hit : compact_top3) {
    std::printf("  id %-4llu estimate %8.4f  (exact %8.4f)\n",
                static_cast<unsigned long long>(hit.id), hit.estimate,
                Dot(query, batch[hit.id].second));
  }
  // Compact stores persist like any other family: the file carries the
  // "wmh_compact" tag and is refused under full-precision expectations.
  const std::string compact_path = "/tmp/ipsketch_service_demo_compact.store";
  if (!SaveSketchStore(reloaded, compact_path).ok()) return 1;
  const Status as_full =
      LoadSketchStoreAs(compact_path, StoreOptions("wmh")).status();
  std::printf("opening the compact file as a 'wmh' store is refused: %s\n",
              as_full.ToString().c_str());
  std::remove(compact_path.c_str());

  // 9. Observability: ask any query for a per-stage trace, and dump the
  //    process-wide metrics every component above recorded into — same text
  //    a /metrics endpoint would serve.
  metrics::QueryTrace trace;
  if (!compact_engine.TopK(query, 3, &trace).ok()) return 1;
  std::printf("\nwhere that top-3 query spent its time:\n  %s\n",
              trace.ToString().c_str());
  std::printf("\nmetrics snapshot (Prometheus text exposition):\n%s",
              metrics::MetricsRegistry::Global().RenderText().c_str());
  return 0;
}
