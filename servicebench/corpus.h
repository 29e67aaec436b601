// Seeded inputs of the service benchmark: a graded-overlap catalog, the
// query set, and the id range that ingest re-writes during a run.
//
// The catalog mixes three kinds of vectors so that a query's exact top-10
// runs from near-duplicates down to weakly related vectors, and the banded
// index's S-curve has to choose:
//   * Zipf/topic TF-IDF documents (GenerateNewsgroupsCorpus +
//     TfidfVectorizer) — the background, sharing topical vocabulary;
//   * near-duplicate groups planted around some of those documents, one copy
//     per jitter level from light to heavy;
//   * §5.1 overlap/outlier groups (GenerateSyntheticPair): one vector plus
//     copies sharing a graded fraction of its non-zeros, with 10% outliers.
// A query is a lightly jittered group anchor. Optionally the catalog also
// holds §5.1 heavy-tailed vectors (nnz log-uniform in [10², 10⁴]), which
// ingest re-writes during the run.
//
// Ingest re-writes an id with the vector already stored there, so the
// catalog's content, and with it every correct answer, stays fixed while
// the service does the full write path (sketch, publish, index mirror).

#ifndef SERVICEBENCH_CORPUS_H_
#define SERVICEBENCH_CORPUS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "catalog.h"

namespace servicebench {

/// The corpus sizes; vectors live in catalog.h's kDimension. Every group
/// has an anchor and 9 members, and there are 1024 queries. Without heavy
/// vectors, ingest re-writes the last 1024 ids.
struct CorpusOptions {
  size_t background_docs = 0;   ///< TF-IDF documents outside any group
  size_t tfidf_groups = 0;      ///< near-duplicate groups of TF-IDF docs
  size_t synthetic_groups = 0;  ///< §5.1 overlap/outlier groups
  size_t heavy_vectors = 0;     ///< §5.1 heavy-tailed vectors (ingested)
};

struct Corpus {
  /// Catalog vectors; entry i has id i.
  CorpusEntries catalog;
  /// Query vectors; query q is a jittered copy of a group anchor.
  std::vector<SparseVector> queries;
  /// (anchor, member) id pairs of the same group, for point estimates.
  std::vector<std::pair<uint64_t, uint64_t>> estimate_pairs;
  /// Ids that ingest re-writes (with the vector already stored there): the
  /// heavy-tailed vectors when present, else the last background documents.
  std::vector<uint64_t> ingest_ids;
};

/// Generates the corpus; the same options and seed give the same corpus.
Result<Corpus> MakeCorpus(const CorpusOptions& options, uint64_t seed);

}  // namespace servicebench

#endif  // SERVICEBENCH_CORPUS_H_
