// Whole-store reads that only tests make, built on SketchStore::PinStore:
// the sorted id list, the §5 storage total, and a pair-by-pair estimate of
// a query against every stored sketch. The last one calls
// SketchFamily::Estimate once per pair, so it shares no code with the
// engine's scan (QueryEngine::RunTopK scores through EstimateMany) and can
// catch a traversal bug that the engine's own paths would agree on.

#ifndef IPSKETCH_TESTS_STORE_TEST_UTIL_H_
#define IPSKETCH_TESTS_STORE_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "service/query_engine.h"
#include "service/sketch_store.h"
#include "sketch/family.h"

namespace ipsketch {

/// `rows` sorted by id.
inline std::vector<QueryHit> SortedById(std::vector<QueryHit> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const QueryHit& a, const QueryHit& b) { return a.id < b.id; });
  return rows;
}

/// Every stored id, sorted.
inline std::vector<uint64_t> StoreIds(const SketchStore& store) {
  std::vector<uint64_t> ids;
  for (const ShardViewPtr& view : store.PinStore()) {
    ids.insert(ids.end(), view->ids.begin(), view->ids.end());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Sum of family().StorageWords over every stored sketch — the catalog's
/// size under the paper's §5 accounting model.
inline double StoreStorageWords(const SketchStore& store) {
  double total = 0.0;
  for (const ShardViewPtr& view : store.PinStore()) {
    for (const auto& sketch : view->sketches) {
      total += store.family().StorageWords(*sketch).value();
    }
  }
  return total;
}

/// family().Estimate(query, s) for every stored sketch s, one row per
/// stored id, sorted by id; the first failing pair's error otherwise.
inline Result<std::vector<QueryHit>> PairwiseEstimates(
    const SketchStore& store, const AnySketch& query) {
  std::vector<QueryHit> rows;
  for (const ShardViewPtr& view : store.PinStore()) {
    for (size_t i = 0; i < view->ids.size(); ++i) {
      auto estimate = store.family().Estimate(query, *view->sketches[i]);
      IPS_RETURN_IF_ERROR(estimate.status());
      rows.push_back({view->ids[i], estimate.value()});
    }
  }
  return SortedById(std::move(rows));
}

}  // namespace ipsketch

#endif  // IPSKETCH_TESTS_STORE_TEST_UTIL_H_
