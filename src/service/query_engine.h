// Estimation and retrieval queries over a SketchStore — the read side of
// the service. All estimates go through the store's SketchFamily on stored
// sketches, whatever the family is; the engine never touches raw vectors
// except to sketch an incoming query exactly once.
//
// One read path: every read pins the store's published per-shard views
// (SketchStore::PinShard) and estimates through the store's family, so no
// query ever takes a store shard's writer mutex or copies a sketch. Two top-k
// policies run over one top-k traversal: the exact scan walks every pinned
// view, and the banded path asks the BandedIndex for candidate ids and
// scores only those, again from the pinned views. TopK, TopKSketch and
// ProbeRecall run as a batch of one through TopKSketchBatch's body.
//
// Parallelism: scans decompose by shard. Each worker thread walks whole
// shards, feeding a private TopKHeap per query (core/similarity_search.h),
// and the per-shard heaps are merged at the end; BetterHit's deterministic
// tie-break makes the merged result identical to a serial scan regardless
// of thread count, shard order, or batch size.
//
// Locking contract (see common/mutex.h): the engine itself is stateless —
// it owns no mutex. A banded probe holds one index band Mutex
// (kIndexShard) at a time while it walks that band's bucket; view pins and
// errors take short-lived kLeaf locks (the store's pin lock, an error-slot
// Mutex local to each query) with nothing else held. Engine queries
// therefore never take part in a lock-order cycle with ingest or index
// maintenance.

#ifndef IPSKETCH_SERVICE_QUERY_ENGINE_H_
#define IPSKETCH_SERVICE_QUERY_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "service/metrics.h"
#include "service/sketch_store.h"
#include "service/thread_pool.h"
#include "sketch/family.h"
#include "vector/sparse_vector.h"

namespace ipsketch {

class BandedIndex;  // index/banded_index.h

/// One scored result of a store query.
struct QueryHit {
  uint64_t id = 0;        ///< vector id in the store
  double estimate = 0.0;  ///< estimated ⟨query, stored vector⟩
};

/// How scans read the store's shards. Pinned epoch views are the only read
/// path: one pointer copy per shard, never the shard's writer mutex, and a
/// query sees, per shard, the newest epoch published before its scan
/// reached that shard. Kept as a one-value enum only for source
/// compatibility with callers of set_read_mode.
enum class ReadMode {
  kSnapshot,
};

/// How TopK/TopKSketch traverse the catalog.
enum class IndexPolicy {
  /// Estimate every stored sketch of every pinned view — exact,
  /// index-free.
  kExactScan,
  /// LSH-banded candidate ids from the index, scored from the pinned views
  /// — sublinear, recall governed by the index's (b, r); every returned
  /// estimate is bit-identical to the exact scan's for that id. Requires an
  /// index: an engine built with this policy and no index aborts.
  kBandedRerank,
};

/// Read-side engine over one store. Holds no mutable state of its own, so a
/// single engine may serve concurrent queries from many threads; the store
/// may be ingesting concurrently (each shard scan reads one pinned view, so
/// it sees a consistent per-shard state and never delays writers).
class QueryEngine {
 public:
  /// Queries run against `store`, fanning across `pool` (nullptr = serial).
  /// Both pointers must outlive the engine; the engine owns neither. This
  /// form pins IndexPolicy::kExactScan with no index.
  explicit QueryEngine(const SketchStore* store, ThreadPool* pool = nullptr);

  /// Index-aware engine: top-k queries follow `policy` against `index`
  /// (which must be attached to the same `store`; all pointers must outlive
  /// the engine). The policy is decided here, once: a non-exact policy with
  /// a null `index` aborts (IPS_CHECK). Under kExactScan the index may be
  /// null, and a non-null one serves only ProbeRecall.
  QueryEngine(const SketchStore* store, ThreadPool* pool,
              const BandedIndex* index,
              IndexPolicy policy = IndexPolicy::kBandedRerank);

  /// No-op: every read already goes through pinned views (see ReadMode).
  void set_read_mode(ReadMode /*mode*/) {}

  /// Estimates ⟨a, b⟩ between two stored vectors. NotFound if either id is
  /// absent.
  Result<double> EstimateInnerProduct(uint64_t id_a, uint64_t id_b) const;

  /// The `k` stored vectors with the largest estimated inner product
  /// against `query` (sketched once), best first; ties break toward the
  /// smaller id. Returns fewer than `k` hits iff the store is smaller.
  /// A non-null `trace` receives stage spans showing where this query's
  /// time went: sketch-query, then shard-scan (exact) or band-query and
  /// index-probe (banded), then heap-merge.
  Result<std::vector<QueryHit>> TopK(const SparseVector& query, size_t k,
                                     metrics::QueryTrace* trace = nullptr)
      const;

  /// TopK against a pre-built query sketch (must be compatible with the
  /// store's family options) — the path for queries that arrive already
  /// sketched, e.g. from a remote catalog shard. Traced like TopK, minus
  /// sketch-query.
  Result<std::vector<QueryHit>> TopKSketch(const AnySketch& query, size_t k,
                                           metrics::QueryTrace* trace =
                                               nullptr) const;

  /// Runs `queries.size()` top-k queries in ONE traversal of the catalog —
  /// the batch entry point the FrontDoor's admission queue feeds, and the
  /// body TopK and TopKSketch run as a batch of one. Shards are visited
  /// once per *batch* instead of once per query: the exact path pins each
  /// shard view once for all queries and estimates every query against
  /// each stored sketch while it is hot, and the banded path walks each
  /// band once per query up front, then pins only the shards holding
  /// candidates, once each. `ks[i]` is query i's k. Results are
  /// per query, in input order; a query whose sketch is incompatible (or
  /// whose estimates fail) gets an error slot without failing the batch.
  std::vector<Result<std::vector<QueryHit>>> TopKSketchBatch(
      const std::vector<const AnySketch*>& queries,
      const std::vector<size_t>& ks) const;

  /// Measures the banded index's recall on one query: sketches it once,
  /// runs both the exact scan and the banded path, and returns
  /// |banded ∩ exact| / |exact| over the top-k id sets (1.0 when the exact
  /// set is empty). Updates the recall-probe counters, so sampling live
  /// queries through this builds an online recall estimate.
  /// FailedPrecondition without an index.
  Result<double> ProbeRecall(const SparseVector& query, size_t k) const;

 private:
  /// Sketches a raw query vector with the store's family.
  Result<std::unique_ptr<AnySketch>> SketchQuery(
      const SparseVector& query) const;

  /// The one top-k traversal: TopKSketchBatch under an explicit policy,
  /// recording stage spans into `trace` when it is non-null. TopKSketch
  /// and TopKSketchBatch pass policy_; ProbeRecall runs both policies.
  std::vector<Result<std::vector<QueryHit>>> RunTopK(
      const std::vector<const AnySketch*>& queries,
      const std::vector<size_t>& ks, IndexPolicy policy,
      metrics::QueryTrace* trace) const;

  const SketchStore* store_;
  ThreadPool* pool_;
  const BandedIndex* index_ = nullptr;
  IndexPolicy policy_ = IndexPolicy::kExactScan;

  // Process-wide query metrics (all QueryEngine instances aggregate).
  // Registry-owned; valid forever.
  metrics::Histogram* estimate_pair_ns_ = nullptr;
  metrics::Histogram* topk_ns_ = nullptr;
  metrics::Histogram* candidates_per_query_ = nullptr;
  metrics::Counter* sketches_scanned_ = nullptr;
  metrics::Counter* queries_ = nullptr;
  metrics::Histogram* rerank_ns_ = nullptr;
  metrics::Counter* recall_probe_expected_ = nullptr;
  metrics::Counter* recall_probe_hits_ = nullptr;
};

}  // namespace ipsketch

#endif  // IPSKETCH_SERVICE_QUERY_ENGINE_H_
