#include "service/query_engine.h"

#include <span>
#include <unordered_set>

#include "common/mutex.h"

#include "core/similarity_search.h"
#include "index/banded_index.h"

namespace ipsketch {

// Heap entries carry store ids in SimilarityHit::index.
static_assert(sizeof(size_t) >= sizeof(uint64_t),
              "service ids require a 64-bit size_t");

namespace {

// Runs fn(shard) for every shard in [0, n), on the pool when there is one.
template <typename Fn>
void ForEachShard(ThreadPool* pool, size_t n, const Fn& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
  } else {
    for (size_t s = 0; s < n; ++s) fn(s);
  }
}

// The view's sketches as the span SketchFamily::EstimateMany reads.
std::vector<const AnySketch*> SketchesOf(const ShardView& view) {
  std::vector<const AnySketch*> sketches;
  sketches.reserve(view.sketches.size());
  for (const auto& sketch : view.sketches) sketches.push_back(sketch.get());
  return sketches;
}

}  // namespace

QueryEngine::QueryEngine(const SketchStore* store, ThreadPool* pool)
    : QueryEngine(store, pool, nullptr, IndexPolicy::kExactScan) {}

QueryEngine::QueryEngine(const SketchStore* store, ThreadPool* pool,
                         const BandedIndex* index, IndexPolicy policy)
    : store_(store), pool_(pool), index_(index), policy_(policy) {
  IPS_CHECK(store_ != nullptr);
  IPS_CHECK(index_ == nullptr || index_->store() == store_);
  IPS_CHECK(index_ != nullptr || policy_ == IndexPolicy::kExactScan);
  auto& registry = metrics::MetricsRegistry::Global();
  estimate_pair_ns_ = &registry.GetHistogram(
      "ipsketch_query_estimate_pair_ns",
      "EstimateInnerProduct latency: two lookups plus one estimate");
  topk_ns_ = &registry.GetHistogram("ipsketch_query_topk_ns",
                                    "TopK/TopKSketch end-to-end latency");
  candidates_per_query_ = &registry.GetHistogram(
      "ipsketch_query_candidates",
      "Sketches scanned (= candidates estimated) per top-k query");
  sketches_scanned_ = &registry.GetCounter(
      "ipsketch_query_sketches_scanned_total",
      "Stored sketches estimated against a query across all scans");
  queries_ = &registry.GetCounter("ipsketch_query_total",
                                  "Queries served (all query APIs)");
  rerank_ns_ = &registry.GetHistogram(
      "ipsketch_index_rerank_ns",
      "Banded path latency: bucket probes plus candidate re-rank");
  recall_probe_expected_ = &registry.GetCounter(
      "ipsketch_index_recall_probe_expected_total",
      "Exact-scan top-k hits across ProbeRecall calls (denominator)");
  recall_probe_hits_ = &registry.GetCounter(
      "ipsketch_index_recall_probe_hits_total",
      "Banded top-k hits matching the exact scan across ProbeRecall calls "
      "(numerator)");
}

Result<double> QueryEngine::EstimateInnerProduct(uint64_t id_a,
                                                 uint64_t id_b) const {
  metrics::ScopedLatency latency(estimate_pair_ns_);
  queries_->Add(1);
  // Pinned views: no shard mutex, no sketch clones.
  const ShardViewPtr va = store_->PinShard(store_->ShardOf(id_a));
  const AnySketch* a = va->Find(id_a);
  if (a == nullptr) {
    return Status::NotFound("no sketch stored under id " +
                            std::to_string(id_a));
  }
  const ShardViewPtr vb = store_->PinShard(store_->ShardOf(id_b));
  const AnySketch* b = vb->Find(id_b);
  if (b == nullptr) {
    return Status::NotFound("no sketch stored under id " +
                            std::to_string(id_b));
  }
  return store_->family().Estimate(*a, *b);
}

Result<std::unique_ptr<AnySketch>> QueryEngine::SketchQuery(
    const SparseVector& query) const {
  auto sketcher = store_->family().MakeSketcher();
  IPS_RETURN_IF_ERROR(sketcher.status());
  std::unique_ptr<AnySketch> sketch = store_->family().NewSketch();
  IPS_RETURN_IF_ERROR(sketcher.value()->Sketch(query, sketch.get()));
  return sketch;
}

Result<std::vector<QueryHit>> QueryEngine::TopK(
    const SparseVector& query, size_t k, metrics::QueryTrace* trace) const {
  Result<std::unique_ptr<AnySketch>> sketched = [&] {
    metrics::ScopedSpan span(trace, "sketch-query");
    return SketchQuery(query);
  }();
  IPS_RETURN_IF_ERROR(sketched.status());
  return TopKSketch(*sketched.value(), k, trace);
}

Result<std::vector<QueryHit>> QueryEngine::TopKSketch(
    const AnySketch& query, size_t k, metrics::QueryTrace* trace) const {
  return std::move(RunTopK({&query}, {k}, policy_, trace).front());
}

std::vector<Result<std::vector<QueryHit>>> QueryEngine::TopKSketchBatch(
    const std::vector<const AnySketch*>& queries,
    const std::vector<size_t>& ks) const {
  return RunTopK(queries, ks, policy_, nullptr);
}

std::vector<Result<std::vector<QueryHit>>> QueryEngine::RunTopK(
    const std::vector<const AnySketch*>& queries,
    const std::vector<size_t>& ks, IndexPolicy policy,
    metrics::QueryTrace* trace) const {
  IPS_CHECK(queries.size() == ks.size());
  metrics::ScopedLatency latency(topk_ns_);
  const size_t q_count = queries.size();
  queries_->Add(q_count);
  const SketchFamily& family = store_->family();
  // errors[q] is query q's first failure. live[q] marks queries still in
  // the traversal: a query leaves it at validation (here) or band-key
  // time, never mid-scan — shard workers only *record* errors, which the
  // merge resolves.
  std::vector<Status> errors(q_count);
  std::vector<bool> live(q_count, false);
  for (size_t q = 0; q < q_count; ++q) {
    IPS_CHECK(queries[q] != nullptr);
    Status compatible = family.CheckCompatible(*queries[q]);
    if (!compatible.ok()) {
      errors[q] = Status::InvalidArgument(
          "query sketch does not match the store's family: " +
          compatible.message());
      continue;
    }
    live[q] = true;
  }

  // One private heap per (query, shard); each shard is visited by exactly
  // one worker, so the heaps are written lock-free and merged once all
  // shards finish.
  const size_t n = store_->num_shards();
  std::vector<std::vector<TopKHeap>> heaps;
  for (size_t q = 0; q < q_count; ++q) heaps.emplace_back(n, TopKHeap(ks[q]));
  // Shared by the exact scan (every live query scans the same entries);
  // per-query candidate counts for the banded path come from probe stats.
  std::vector<size_t> entries_per_shard(n, 0);
  std::vector<std::vector<IndexProbeStats>> probe_stats;
  // kLeaf: record_error runs from shard workers that hold no lock; nothing
  // nests under it.
  Mutex error_mu;
  auto record_error = [&](size_t q, const Status& st) {
    MutexLock lock(&error_mu);
    if (errors[q].ok()) errors[q] = st;
  };

  switch (policy) {
    case IndexPolicy::kExactScan: {
      metrics::ScopedSpan span(trace, "shard-scan");
      // The live queries score against each shard in one family call;
      // slot[l] is live query l's position in the batch.
      std::vector<const AnySketch*> scored;
      std::vector<size_t> slot;
      for (size_t q = 0; q < q_count; ++q) {
        if (!live[q]) continue;
        scored.push_back(queries[q]);
        slot.push_back(q);
      }
      ForEachShard(pool_, n, [&](size_t s) {
        const ShardViewPtr view = store_->PinShard(s);
        const size_t count = view->ids.size();
        entries_per_shard[s] = count;
        const std::vector<const AnySketch*> sketches = SketchesOf(*view);
        std::vector<double> estimates(scored.size() * count);
        const bool all_scored =
            family.EstimateMany(scored, sketches, estimates).ok();
        for (size_t l = 0; l < scored.size(); ++l) {
          const std::span<double> row(estimates.data() + l * count, count);
          // Only on error: re-score each query alone, so a pair that fails
          // to score fails only its own query.
          if (!all_scored) {
            Status st = family.EstimateMany({&scored[l], 1}, sketches, row);
            if (!st.ok()) {
              record_error(slot[l], st);
              continue;
            }
          }
          for (size_t i = 0; i < count; ++i) {
            heaps[slot[l]][s].Offer(static_cast<size_t>(view->ids[i]), row[i]);
          }
        }
      });
      break;
    }
    case IndexPolicy::kBandedRerank: {
      // Band keys once per query, shared by both probe steps.
      std::vector<std::vector<uint64_t>> keys(q_count);
      {
        metrics::ScopedSpan span(trace, "band-query");
        for (size_t q = 0; q < q_count; ++q) {
          if (!live[q]) continue;
          Status st = index_->QueryBandKeys(*queries[q], &keys[q]);
          if (!st.ok()) {
            errors[q] = st;
            live[q] = false;
          }
        }
      }
      metrics::ScopedSpan span(trace, "index-probe");
      metrics::ScopedLatency rerank_latency(rerank_ns_);
      // Step one walks each band once per live query; step two scores each
      // shard's share of every query from one pin of that shard's view.
      std::vector<BandCandidates> found(q_count);
      for (size_t q = 0; q < q_count; ++q) {
        if (live[q]) found[q] = index_->CollectCandidates(keys[q]);
      }
      probe_stats.assign(q_count, std::vector<IndexProbeStats>(n));
      ForEachShard(pool_, n, [&](size_t s) {
        ShardViewPtr view;
        for (size_t q = 0; q < q_count; ++q) {
          if (!live[q] || found[q].Shard(s).empty()) continue;
          if (view == nullptr) view = store_->PinShard(s);
          Status st = index_->ScoreShard(*queries[q], found[q], s, *view,
                                         &heaps[q][s], &probe_stats[q][s]);
          if (!st.ok()) record_error(q, st);
        }
      });
      break;
    }
  }

  // Every shard worker has joined, so errors[] is read without the lock.
  metrics::ScopedSpan merge_span(trace, "heap-merge");
  size_t total_entries = 0;
  for (size_t c : entries_per_shard) total_entries += c;
  size_t total_estimated = 0;
  std::vector<Result<std::vector<QueryHit>>> results;
  results.reserve(q_count);
  for (size_t q = 0; q < q_count; ++q) {
    if (!errors[q].ok()) {
      results.emplace_back(errors[q]);
      continue;
    }
    TopKHeap merged(ks[q]);
    for (const TopKHeap& heap : heaps[q]) merged.Merge(heap);
    std::vector<QueryHit> hits;
    for (const SimilarityHit& hit : merged.TakeSorted()) {
      hits.push_back({static_cast<uint64_t>(hit.index), hit.estimate});
    }
    // For the banded path the count is re-ranked candidates — the work
    // actually done — so candidates_per_query_ exposes the banding win
    // directly against the exact scan's corpus-sized numbers.
    size_t candidates = total_entries;
    if (policy == IndexPolicy::kBandedRerank) {
      candidates = 0;
      for (const IndexProbeStats& st : probe_stats[q]) {
        candidates += static_cast<size_t>(st.candidates);
      }
    }
    candidates_per_query_->Record(candidates);
    total_estimated += candidates;
    results.emplace_back(std::move(hits));
  }
  sketches_scanned_->Add(total_estimated);
  return results;
}

Result<double> QueryEngine::ProbeRecall(const SparseVector& query,
                                        size_t k) const {
  if (index_ == nullptr) {
    return Status::FailedPrecondition(
        "recall probes require a banded index");
  }
  auto sketched = SketchQuery(query);
  IPS_RETURN_IF_ERROR(sketched.status());
  const std::vector<const AnySketch*> one = {sketched.value().get()};
  auto exact =
      std::move(RunTopK(one, {k}, IndexPolicy::kExactScan, nullptr).front());
  IPS_RETURN_IF_ERROR(exact.status());
  auto banded =
      std::move(RunTopK(one, {k}, IndexPolicy::kBandedRerank, nullptr).front());
  IPS_RETURN_IF_ERROR(banded.status());
  if (exact.value().empty()) return 1.0;
  std::unordered_set<uint64_t> exact_ids;
  exact_ids.reserve(exact.value().size());
  for (const QueryHit& hit : exact.value()) exact_ids.insert(hit.id);
  size_t overlap = 0;
  for (const QueryHit& hit : banded.value()) {
    overlap += exact_ids.count(hit.id);
  }
  recall_probe_expected_->Add(exact.value().size());
  recall_probe_hits_->Add(overlap);
  return static_cast<double>(overlap) /
         static_cast<double>(exact.value().size());
}

}  // namespace ipsketch
