#include "core/dart_minhash.h"

#include <cmath>

#include "common/rng.h"
#include "common/status.h"
#include "core/active_index.h"

namespace ipsketch {
namespace {

// Domain-separation tags: the per-block dart stream and the per-(sample,
// block) fallback stream must be independent of each other and of the
// active-index engine's streams (a dart sketch is never comparable with an
// active-index sketch, and reusing streams would silently correlate them).
constexpr uint64_t kDartStreamTag = 0xDA27DA27DA27DA27ull;
constexpr uint64_t kDartFallbackTag = 0xFA11BAC4FA11BAC4ull;

// Expected uncovered samples per sketch is e^(-slack): ~0.018 at 4, so the
// O(nnz·log L) fallback walk is off the hot path while θ — and with it the
// dart count m·(ln m + slack) — stays small.
constexpr double kDartCoverageSlack = 4.0;

// One block's Bernoulli(θ) skip-walk over the slot-major grid p = slot·m + s,
// p ∈ [0, span) with span = reps·m, from the stream keyed `key`. `log_q` is
// log1p(−θ). Returns how many samples got their first dart here. Pos is
// uint64_t when span fits in 64 bits and unsigned __int128 otherwise
// (reps·m can pass 2^64 for extreme (L, m) pairs). Gaps can be
// astronomically large for tiny θ, so the exit test is `gap >= span - pos`,
// which cannot overflow in either type.
template <typename Pos>
size_t WalkBlock(uint64_t key, Pos span, size_t m, double theta, double log_q,
                 double value, double* hashes, double* values) {
  SplitMix64 rng(key);
  size_t covered = 0;
  // First hit, 0-based.
  Pos pos = GeometricFromUnitLogQ(PositiveUnitFromU64(rng.Next()), log_q) - 1;
  while (pos < span) {
    // Draw order is (gap, value, gap, value, ...): a vector whose walk
    // stops earlier never consumes the value of a hit beyond its span, so
    // shorter and longer prefixes read identical bytes in common.
    const double hit = theta * PositiveUnitFromU64(rng.Next());
    const size_t s = static_cast<size_t>(pos % m);
    if (hit < hashes[s]) {
      if (hashes[s] > 1.0) ++covered;  // first dart for this sample
      hashes[s] = hit;
      values[s] = value;
    }
    const uint64_t gap =
        GeometricFromUnitLogQ(PositiveUnitFromU64(rng.Next()), log_q);
    if (gap >= span - pos) break;
    pos += gap;
  }
  return covered;
}

}  // namespace

double DartThreshold(size_t num_samples, uint64_t L) {
  IPS_CHECK(num_samples > 0 && L > 0);
  const double theta =
      (std::log(static_cast<double>(num_samples)) + kDartCoverageSlack) /
      static_cast<double>(L);
  return theta < 1.0 ? theta : 1.0;
}

void SketchWithDartThreshold(const DiscretizedVector& dv, uint64_t seed,
                             size_t num_samples, double theta,
                             std::vector<double>* hashes,
                             std::vector<double>* values) {
  IPS_CHECK(hashes->size() == num_samples && values->size() == num_samples);
  IPS_CHECK(theta > 0.0 && theta <= 1.0);
  const size_t m = num_samples;

  if (dv.entries.empty()) {
    // No occupied slots: the hash supremum, as the other engines yield.
    for (size_t s = 0; s < m; ++s) {
      (*hashes)[s] = 1.0;
      (*values)[s] = 0.0;
    }
    return;
  }

  // Sentinel above every reachable hash: dart values lie in (0, θ].
  for (size_t s = 0; s < m; ++s) {
    (*hashes)[s] = 2.0;
    (*values)[s] = 0.0;
  }

  // Dart layer: per block, one skip-walk (WalkBlock). The stream is keyed
  // by (seed, block) only — MixCombine(seed, kDartStreamTag, index), with
  // its first two components mixed once per sketch — and the walk order is
  // a prefix in the slot count, so every vector containing this block reads
  // the identical dart sequence up to its own repetition count. log1p(−θ)
  // is computed once per sketch, so a dart costs one libm log; cutting that
  // changes the hash function, which needs a new engine id.
  const uint64_t stream_base = MixCombine(seed, kDartStreamTag);
  const double log_q = std::log1p(-theta);
  size_t covered = 0;
  for (const DiscretizedEntry& e : dv.entries) {
    const uint64_t key = Mix64(stream_base ^ e.index);
    if (e.reps <= UINT64_MAX / m) {
      covered += WalkBlock<uint64_t>(key, e.reps * m, m, theta, log_q,
                                     e.value, hashes->data(), values->data());
    } else {
      covered += WalkBlock<unsigned __int128>(
          key, static_cast<unsigned __int128>(e.reps) * m, m, theta, log_q,
          e.value, hashes->data(), values->data());
    }
  }
  if (covered == m) return;

  // Fallback layer for samples with no dart anywhere in their L slots: the
  // exact minimum of h over the prefix is θ + (1−θ)·min over blocks of the
  // V-stream prefix minimum, because an uncovered sample has *no* hit slot —
  // every one of its slots carries the V branch. The V stream is the
  // active-index prefix-minimum recursion under a domain-separated seed, so
  // it is deterministic in (seed, sample, block) and truncation-coordinated
  // like everything else.
  const uint64_t fallback_seed = MixCombine(seed, kDartFallbackTag);
  for (size_t s = 0; s < m; ++s) {
    if ((*hashes)[s] <= 1.0) continue;
    double best_v = 2.0;
    double best_value = 0.0;
    for (const DiscretizedEntry& e : dv.entries) {
      const double v = ActiveIndexBlockMin(fallback_seed, s, e.index, e.reps);
      if (v < best_v) {
        best_v = v;
        best_value = e.value;
      }
    }
    (*hashes)[s] = theta + (1.0 - theta) * best_v;
    (*values)[s] = best_value;
  }
}

void SketchWithDart(const DiscretizedVector& dv, uint64_t seed,
                    size_t num_samples, std::vector<double>* hashes,
                    std::vector<double>* values) {
  SketchWithDartThreshold(dv, seed, num_samples,
                          DartThreshold(num_samples, dv.L), hashes, values);
}

}  // namespace ipsketch
