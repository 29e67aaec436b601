// Deterministic pseudo-random number generation.
//
// All randomness in the library flows through the primitives in this file so
// that sketches are reproducible from a single 64-bit seed, and so that two
// machines sketching different vectors with the same seed produce
// *coordinated* randomness (the property MinHash-style sketches rely on).
//
// Three layers are provided:
//   * Mix64 / MixCombine: stateless 64-bit finalizers used to derive
//     independent stream keys from (seed, sample, block, ...) tuples.
//   * SplitMix64: a tiny sequential generator, used for seeding and as the
//     per-block stream of the sketching engines.
//   * Xoshiro256StarStar: the main counter-advanced generator used by data
//     generators.
//
// The mixers, SplitMix64 and the unit maps are inline: the dart engine draws
// two of them per dart, and an out-of-line call per draw cost more than the
// arithmetic it wrapped.

#ifndef IPSKETCH_COMMON_RNG_H_
#define IPSKETCH_COMMON_RNG_H_

#include <cmath>
#include <cstdint>

#include "common/status.h"

namespace ipsketch {

/// SplitMix64's increment (the golden ratio in 64-bit fixed point).
inline constexpr uint64_t kSplitMixGolden = 0x9E3779B97F4A7C15ull;

/// Stateless 64-bit mixing finalizer (SplitMix64 finalizer). Bijective, with
/// strong avalanche behaviour: flipping any input bit flips ~half the output
/// bits. Used to key independent random streams from structured tuples.
/// Mix64(x) is the output SplitMix64 draws from state x.
inline uint64_t Mix64(uint64_t x) {
  x += kSplitMixGolden;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Derives a stream key from two components, e.g. (seed, sample index).
inline uint64_t MixCombine(uint64_t a, uint64_t b) {
  return Mix64(Mix64(a) ^ b);
}

/// Derives a stream key from three components, e.g. (seed, sample, block):
/// Mix64(MixCombine(a, b) ^ c), so a caller keying many streams under one
/// (a, b) may compute MixCombine(a, b) once.
inline uint64_t MixCombine(uint64_t a, uint64_t b, uint64_t c) {
  return Mix64(MixCombine(a, b) ^ c);
}

/// Maps a 64-bit word to a double in [0, 1) using the top 53 bits.
inline double UnitFromU64(uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Maps a 64-bit word to a double in (0, 1]; never returns exactly 0.
/// Useful when the value feeds a logarithm.
inline double PositiveUnitFromU64(uint64_t x) {
  return (static_cast<double>(x >> 11) + 1.0) * 0x1.0p-53;
}

/// Minimal sequential generator, used for seeding larger-state generators
/// and as the per-block stream of the sketching engines.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  /// Returns the next 64-bit output and advances the state.
  uint64_t Next() {
    const uint64_t out = Mix64(state_);
    state_ += kSplitMixGolden;
    return out;
  }

 private:
  uint64_t state_;
};

/// xoshiro256** 1.0 — fast, high-quality 64-bit PRNG (Blackman & Vigna).
/// Satisfies the C++ UniformRandomBitGenerator concept so it can drive
/// <random> distributions.
class Xoshiro256StarStar {
 public:
  using result_type = uint64_t;

  /// Seeds the four 64-bit state words from `seed` via SplitMix64.
  explicit Xoshiro256StarStar(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  /// Returns the next 64-bit output.
  uint64_t operator()();

  /// Returns a double uniform in [0, 1).
  double NextUnit() { return UnitFromU64((*this)()); }

  /// Returns a double uniform in (0, 1].
  double NextPositiveUnit() { return PositiveUnitFromU64((*this)()); }

  /// Returns an integer uniform in [0, bound) without modulo bias.
  /// `bound` must be positive.
  uint64_t NextBounded(uint64_t bound);

  /// Returns a standard normal variate (Box–Muller, one value per call).
  double NextGaussian();

 private:
  uint64_t s_[4];
};

/// `GeometricFromUnit(u, p)` with `log_q` = log1p(−p) precomputed, for a
/// caller that draws many times at one p. `log_q` lies in [−∞, 0) for p in
/// (0, 1]; −∞ is p = 1, where every trial succeeds. This is the one
/// definition of the draw: G = floor(log(u) / log_q) + 1, saturating at
/// UINT64_MAX where the quotient reaches 9e18.
inline uint64_t GeometricFromUnitLogQ(double u, double log_q) {
  IPS_CHECK(u > 0.0 && u <= 1.0);
  IPS_CHECK(log_q < 0.0);  // p in (0, 1]
  if (std::isinf(log_q)) return 1;  // log_q = −∞: p = 1
  const double g = std::floor(std::log(u) / log_q);
  // g is >= 0 since log(u) <= 0 and log_q < 0. Guard against overflow for
  // astronomically small p * u combinations.
  if (g >= 9.0e18) return UINT64_MAX;
  return static_cast<uint64_t>(g) + 1;
}

/// Samples G ~ Geometric(p): the number of i.i.d. Bernoulli(p) trials up to
/// and including the first success, so G >= 1 and E[G] = 1/p.
///
/// `u` must lie in (0, 1]; `p` must lie in (0, 1]. Implemented by inversion,
/// G = floor(log(u) / log(1 - p)) + 1, which costs O(1) regardless of p —
/// this is the "skip ahead" primitive behind the active-index weighted
/// MinHash sketcher (Gollapudi & Panigrahy 2006).
inline uint64_t GeometricFromUnit(double u, double p) {
  return GeometricFromUnitLogQ(u, std::log1p(-p));
}

}  // namespace ipsketch

#endif  // IPSKETCH_COMMON_RNG_H_
