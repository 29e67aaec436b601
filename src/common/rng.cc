#include "common/rng.h"

#include <cmath>

#include "common/status.h"

namespace ipsketch {
namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Xoshiro256StarStar::Xoshiro256StarStar(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.Next();
  // All-zero state is the one invalid state for xoshiro; SplitMix64 cannot
  // produce four zero outputs in a row from any seed, but guard regardless.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = kSplitMixGolden;
}

uint64_t Xoshiro256StarStar::operator()() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Xoshiro256StarStar::NextBounded(uint64_t bound) {
  IPS_CHECK(bound > 0);
  // Rejection sampling over the largest multiple of `bound`.
  const uint64_t threshold = (~bound + 1) % bound;  // (2^64 - bound) mod bound
  for (;;) {
    const uint64_t r = (*this)();
    if (r >= threshold) return r % bound;
  }
}

double Xoshiro256StarStar::NextGaussian() {
  // Box–Muller; u1 in (0,1] keeps the logarithm finite.
  const double u1 = NextPositiveUnit();
  const double u2 = NextUnit();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return r * std::cos(2.0 * M_PI * u2);
}

}  // namespace ipsketch
