#include "corpus.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "data/newsgroups.h"
#include "data/synthetic.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"

namespace servicebench {

using ipsketch::Entry;
using ipsketch::MixCombine;
using ipsketch::Xoshiro256StarStar;

namespace {

constexpr size_t kCopiesPerGroup = 9;
constexpr size_t kIngestIds = 1024;
constexpr size_t kNumQueries = 1024;

/// A vector from unordered entries; on a repeated index the first entry
/// wins.
SparseVector FromEntries(uint64_t dimension, std::vector<Entry> entries) {
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.index < b.index;
                   });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.index == b.index;
                            }),
                entries.end());
  return SparseVector::MakeOrDie(dimension, std::move(entries));
}

/// A copy of `v` at jitter level j in [0, 1): each non-zero is dropped with
/// probability j, surviving values are scaled by exp(j·N(0, 1)), and
/// round(j·nnz) fresh non-zeros, valued like v's, land at random indices.
SparseVector Jitter(const SparseVector& v, double j, uint64_t seed) {
  const std::vector<Entry>& in = v.entries();
  if (in.empty()) return v;
  Xoshiro256StarStar rng(seed);
  std::vector<Entry> out;
  out.reserve(2 * in.size());
  for (const Entry& e : in) {
    if (rng.NextUnit() < j) continue;
    out.push_back({e.index, e.value * std::exp(j * rng.NextGaussian())});
  }
  const auto fresh =
      static_cast<size_t>(std::llround(j * static_cast<double>(in.size())));
  for (size_t i = 0; i < fresh; ++i) {
    out.push_back({rng.NextBounded(v.dimension()),
                   in[rng.NextBounded(in.size())].value});
  }
  if (out.empty()) out.push_back(in.front());
  return FromEntries(v.dimension(), std::move(out));
}

/// Member k of `count` sits at fraction k/(count-1) of the way from `first`
/// to `last`.
double Graded(size_t k, size_t count, double first, double last) {
  if (count <= 1) return first;
  return first + (last - first) * static_cast<double>(k) /
                     static_cast<double>(count - 1);
}

/// L2-normalized sublinear TF-IDF vectors of Zipf/topic documents.
Result<std::vector<SparseVector>> TfidfDocuments(size_t count,
                                                 uint64_t dimension,
                                                 uint64_t seed) {
  if (count == 0) return std::vector<SparseVector>{};
  ipsketch::NewsgroupsOptions docs;
  docs.num_documents = count;
  docs.vocab_size = 60000;
  docs.num_topics = 200;
  docs.length_log_mean = 4.0;  // e^4 ≈ 55 words
  docs.length_log_sigma = 0.8;
  docs.min_length = 12;
  docs.max_length = 2000;
  docs.seed = seed;
  auto generated = ipsketch::GenerateNewsgroupsCorpus(docs);
  if (!generated.ok()) return generated.status();
  ipsketch::FeatureOptions unigrams;
  unigrams.bigrams = false;
  std::vector<std::vector<uint64_t>> features;
  features.reserve(count);
  for (const auto& doc : generated.value()) {
    features.push_back(ipsketch::IdFeatures(doc.token_ids, unigrams));
  }
  ipsketch::TfidfOptions tfidf;
  tfidf.dimension = dimension;
  tfidf.sublinear_tf = true;
  ipsketch::TfidfVectorizer vectorizer(tfidf);
  return vectorizer.FitTransform(features);
}

}  // namespace

Result<Corpus> MakeCorpus(const CorpusOptions& options, uint64_t seed) {
  const uint64_t dim = kDimension;
  const size_t copies = kCopiesPerGroup;
  auto tfidf = TfidfDocuments(options.tfidf_groups + options.background_docs,
                              dim, MixCombine(seed, 1));
  if (!tfidf.ok()) return tfidf.status();
  std::vector<SparseVector> docs = std::move(tfidf).value();

  Corpus corpus;
  auto add = [&corpus](SparseVector v) {
    const uint64_t id = corpus.catalog.size();
    corpus.catalog.push_back({id, std::move(v)});
    return id;
  };
  std::vector<uint64_t> anchors;

  // Near-duplicate groups: the anchor document, then one copy per jitter
  // level from 0.01 (near-identical) to 0.2 (weakly related).
  for (size_t g = 0; g < options.tfidf_groups; ++g) {
    const uint64_t anchor = add(docs[g]);
    anchors.push_back(anchor);
    for (size_t k = 0; k < copies; ++k) {
      const uint64_t id = add(Jitter(docs[g], Graded(k, copies, 0.01, 0.2),
                                     MixCombine(seed, 3, anchor + k)));
      corpus.estimate_pairs.push_back({anchor, id});
    }
  }

  // §5.1 groups: vector a, then copies that keep a's first `shared`
  // non-zeros (overlap 0.9 down to 0.1) and fill the rest from b, which
  // shares nothing with a. Both carry the paper's 10% heavy outliers.
  Xoshiro256StarStar rng(MixCombine(seed, 2));
  for (size_t g = 0; g < options.synthetic_groups; ++g) {
    ipsketch::SyntheticPairOptions pair_options;
    pair_options.dimension = dim;
    pair_options.nnz = 100 + rng.NextBounded(301);
    pair_options.overlap = 0.0;
    pair_options.seed = MixCombine(seed, 4, g);
    auto pair = ipsketch::GenerateSyntheticPair(pair_options);
    if (!pair.ok()) return pair.status();
    const std::vector<Entry>& a = pair.value().a.entries();
    const std::vector<Entry>& b = pair.value().b.entries();
    const uint64_t anchor = add(pair.value().a);
    anchors.push_back(anchor);
    for (size_t k = 0; k < copies; ++k) {
      const auto shared = static_cast<size_t>(std::llround(
          Graded(k, copies, 0.9, 0.1) * static_cast<double>(a.size())));
      std::vector<Entry> entries(a.begin(), a.begin() + shared);
      entries.insert(entries.end(), b.begin() + shared, b.end());
      corpus.estimate_pairs.push_back(
          {anchor, add(FromEntries(dim, std::move(entries)))});
    }
  }

  for (size_t d = options.tfidf_groups; d < docs.size(); ++d) {
    add(std::move(docs[d]));
  }
  docs.clear();
  docs.shrink_to_fit();

  // Heavy-tailed ingest vectors: nnz log-uniform in [10², 10⁴].
  for (size_t h = 0; h < options.heavy_vectors; ++h) {
    ipsketch::SyntheticPairOptions pair_options;
    pair_options.dimension = dim;
    pair_options.nnz = static_cast<size_t>(
        std::llround(std::pow(10.0, 2.0 + 2.0 * rng.NextUnit())));
    pair_options.overlap = 0.0;
    pair_options.seed = MixCombine(seed, 5, h);
    auto pair = ipsketch::GenerateSyntheticPair(pair_options);
    if (!pair.ok()) return pair.status();
    corpus.ingest_ids.push_back(add(std::move(pair.value().a)));
  }
  if (options.heavy_vectors == 0) {
    const size_t n = std::min(kIngestIds, corpus.catalog.size());
    for (size_t i = corpus.catalog.size() - n; i < corpus.catalog.size();
         ++i) {
      corpus.ingest_ids.push_back(i);
    }
  }

  // Queries: lightly jittered anchors, spread evenly over every group.
  if (anchors.empty()) {
    return Status::InvalidArgument("corpus needs at least one group");
  }
  for (size_t q = 0; q < kNumQueries; ++q) {
    const uint64_t anchor = anchors[q * anchors.size() / kNumQueries];
    corpus.queries.push_back(Jitter(corpus.catalog[anchor].second, 0.03,
                                    MixCombine(seed, 6, q)));
  }
  return corpus;
}

}  // namespace servicebench
