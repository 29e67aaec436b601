// Sketch-based similarity retrieval: given a collection of pre-computed WMH
// sketches, find the vectors with the largest estimated inner products —
// the dataset-search / document-retrieval access pattern (§1.2, §5.2). The
// TopKHeap kernel here is what the service's QueryEngine and BandedIndex
// rank with; TopKByInnerProduct is the serial brute-force reference.

#ifndef IPSKETCH_CORE_SIMILARITY_SEARCH_H_
#define IPSKETCH_CORE_SIMILARITY_SEARCH_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "core/wmh_estimator.h"
#include "core/wmh_sketch.h"

namespace ipsketch {

/// One retrieval hit.
struct SimilarityHit {
  size_t index = 0;       ///< position in the candidate collection
  double estimate = 0.0;  ///< estimated ⟨query, candidate⟩
};

/// Total order on hits: larger estimate first, ties broken by smaller index.
/// Every ranking in this header (and in service/query_engine.h) sorts by
/// this order, so results are deterministic regardless of scan order — the
/// property that lets a parallel shard scan match a serial one exactly.
inline bool BetterHit(const SimilarityHit& x, const SimilarityHit& y) {
  if (x.estimate != y.estimate) return x.estimate > y.estimate;
  return x.index < y.index;
}

/// Bounded collector that keeps the `top_k` best hits (per `BetterHit`) of a
/// stream. O(log k) per offer against the worst retained hit; the brute-force
/// scan over n candidates costs O(n log k) instead of the O(n log n) of
/// sort-everything. This is the single kernel behind every brute-force path:
/// the serial ranker below feeds one heap; the service QueryEngine feeds one
/// heap per shard and merges them at the end.
class TopKHeap {
 public:
  /// A collector retaining at most `top_k` hits. `top_k == 0` retains none.
  explicit TopKHeap(size_t top_k) : top_k_(top_k) {}

  /// Offers one hit; evicts the worst retained hit if over capacity.
  void Offer(size_t index, double estimate);

  /// Offers every hit another collector retained (its capacity may differ).
  void Merge(const TopKHeap& other);

  /// Number of hits currently retained (≤ top_k).
  size_t size() const { return heap_.size(); }

  /// Extracts the retained hits, best first, leaving the collector empty.
  std::vector<SimilarityHit> TakeSorted();

 private:
  size_t top_k_;
  std::vector<SimilarityHit> heap_;  // min-heap: worst retained hit on top
};

/// Ranks all candidates against `query` by estimated inner product and
/// returns the `top_k` largest. All sketches must share (m, seed, L,
/// dimension). O(|candidates| · m).
Result<std::vector<SimilarityHit>> TopKByInnerProduct(
    const WmhSketch& query, const std::vector<WmhSketch>& candidates,
    size_t top_k,
    const WmhEstimateOptions& options = WmhEstimateOptions());

}  // namespace ipsketch

#endif  // IPSKETCH_CORE_SIMILARITY_SEARCH_H_
