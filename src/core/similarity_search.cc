#include "core/similarity_search.h"

#include <algorithm>

namespace ipsketch {
namespace {

// Heap comparator: the *worst* hit (per BetterHit) must surface at the top
// so it is the one evicted, hence the inverted order.
bool WorseOnTop(const SimilarityHit& x, const SimilarityHit& y) {
  return BetterHit(x, y);
}

}  // namespace

void TopKHeap::Offer(size_t index, double estimate) {
  if (top_k_ == 0) return;
  const SimilarityHit hit{index, estimate};
  if (heap_.size() < top_k_) {
    heap_.push_back(hit);
    std::push_heap(heap_.begin(), heap_.end(), WorseOnTop);
    return;
  }
  if (!BetterHit(hit, heap_.front())) return;
  std::pop_heap(heap_.begin(), heap_.end(), WorseOnTop);
  heap_.back() = hit;
  std::push_heap(heap_.begin(), heap_.end(), WorseOnTop);
}

void TopKHeap::Merge(const TopKHeap& other) {
  for (const SimilarityHit& hit : other.heap_) Offer(hit.index, hit.estimate);
}

std::vector<SimilarityHit> TopKHeap::TakeSorted() {
  std::vector<SimilarityHit> out = std::move(heap_);
  heap_.clear();
  std::sort(out.begin(), out.end(), BetterHit);
  return out;
}

Result<std::vector<SimilarityHit>> TopKByInnerProduct(
    const WmhSketch& query, const std::vector<WmhSketch>& candidates,
    size_t top_k, const WmhEstimateOptions& options) {
  TopKHeap heap(top_k);
  for (size_t i = 0; i < candidates.size(); ++i) {
    auto est = EstimateWmhInnerProduct(query, candidates[i], options);
    IPS_RETURN_IF_ERROR(est.status());
    heap.Offer(i, est.value());
  }
  return heap.TakeSorted();
}

}  // namespace ipsketch
