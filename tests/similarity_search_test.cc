#include "core/similarity_search.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "vector/vector_ops.h"

namespace ipsketch {
namespace {

// A family of vectors where vector i and i+1 share most of their support,
// so "neighbors" are the most similar pairs.
std::vector<SparseVector> MakeFamily(size_t count, uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<SparseVector> out;
  for (size_t v = 0; v < count; ++v) {
    std::vector<Entry> entries;
    for (uint64_t i = 0; i < 120; ++i) {
      entries.push_back({v * 40 + i, 0.5 + rng.NextUnit()});
    }
    out.push_back(SparseVector::MakeOrDie(4096, std::move(entries)));
  }
  return out;
}

std::vector<WmhSketch> SketchAll(const std::vector<SparseVector>& vectors,
                                 size_t m, uint64_t seed) {
  WmhOptions o;
  o.num_samples = m;
  o.seed = seed;
  std::vector<WmhSketch> out;
  for (const auto& v : vectors) out.push_back(SketchWmh(v, o).value());
  return out;
}

TEST(TopKTest, FindsTheOverlappingNeighbors) {
  const auto vectors = MakeFamily(8, 1);
  const auto sketches = SketchAll(vectors, 256, 7);
  // Query with vector 3: its most similar candidates are 2 and 4 (they share
  // 2/3 of its support); 0 and 7 share nothing.
  const auto hits = TopKByInnerProduct(sketches[3], sketches, 3).value();
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].index, 3u);  // itself
  const bool neighbors = (hits[1].index == 2 || hits[1].index == 4) &&
                         (hits[2].index == 2 || hits[2].index == 4);
  EXPECT_TRUE(neighbors) << hits[1].index << " " << hits[2].index;
}

TEST(TopKTest, TopKLargerThanCollectionReturnsAll) {
  const auto vectors = MakeFamily(4, 2);
  const auto sketches = SketchAll(vectors, 64, 3);
  const auto hits = TopKByInnerProduct(sketches[0], sketches, 100).value();
  EXPECT_EQ(hits.size(), 4u);
}

TEST(TopKTest, EstimatesMatchPairwiseEstimator) {
  const auto vectors = MakeFamily(5, 3);
  const auto sketches = SketchAll(vectors, 128, 5);
  const auto hits = TopKByInnerProduct(sketches[1], sketches, 5).value();
  for (const auto& hit : hits) {
    EXPECT_DOUBLE_EQ(
        hit.estimate,
        EstimateWmhInnerProduct(sketches[1], sketches[hit.index]).value());
  }
}

TEST(TopKTest, IncompatibleSketchesFail) {
  const auto vectors = MakeFamily(3, 4);
  auto sketches = SketchAll(vectors, 64, 5);
  auto other = SketchAll(vectors, 64, 6);  // different seed
  sketches[2] = other[2];
  EXPECT_FALSE(TopKByInnerProduct(sketches[0], sketches, 3).ok());
}

}  // namespace
}  // namespace ipsketch
