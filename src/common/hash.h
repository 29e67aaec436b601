// Hash families used by the sketching algorithms.
//
// The paper's analysis assumes uniformly random hash functions h: {1..n} ->
// [0,1]; in practice it prescribes 2-wise independent Carter–Wegman hashing
// over a Mersenne prime, with hash values stored as 32-bit integers (§5,
// "Choice of Hash Function"). This file provides:
//
//   * CarterWegman31 — h(x) = ((a·x + b) mod p) with p = 2^31 − 1. Matches
//     the paper's practical choice; output fits a 32-bit int.
//   * CarterWegman61 — the same construction over p = 2^61 − 1, for domains
//     (such as the expanded vectors of Algorithm 3, size n·L) that exceed
//     2^31 elements.
//   * SignHash / BucketHash — the ±1 and bucket hashes used by linear
//     sketches (JL, CountSketch).
//
// Every family is deterministic given (seed, stream index), so independently
// computed sketches are coordinated.

#ifndef IPSKETCH_COMMON_HASH_H_
#define IPSKETCH_COMMON_HASH_H_

#include <cstdint>

namespace ipsketch {

/// p = 2^31 − 1, the 31-bit Mersenne prime used by CarterWegman31.
inline constexpr uint64_t kMersenne31 = (uint64_t{1} << 31) - 1;

/// p = 2^61 − 1, the 61-bit Mersenne prime used by CarterWegman61.
inline constexpr uint64_t kMersenne61 = (uint64_t{1} << 61) - 1;

/// Reduces x (< 2^62) modulo 2^31 − 1 using Mersenne folding.
uint64_t ModMersenne31(uint64_t x);

/// Reduces a 128-bit product modulo 2^61 − 1 using Mersenne folding.
uint64_t ModMersenne61(unsigned __int128 x);

/// 2-wise independent hash h(x) = ((a·x + b) mod p), p = 2^31 − 1.
///
/// For any x != y, (h(x), h(y)) is uniform over pairs, which is the
/// independence level assumed by prior weighted MinHash implementations
/// (Wu et al. 2020) and by the paper's experiments. Domain: x in [0, p).
class CarterWegman31 {
 public:
  /// Draws (a, b) pseudo-randomly from (seed, stream); a in [1, p), b in [0, p).
  CarterWegman31(uint64_t seed, uint64_t stream);

  /// Hash value in [0, p) as an integer. Fits in 31 bits (a 32-bit int).
  uint32_t Hash(uint64_t x) const;

  /// Hash value mapped to the unit interval [0, 1).
  double HashUnit(uint64_t x) const { return static_cast<double>(Hash(x)) / kP; }

  /// Multiplier (exposed for tests).
  uint64_t a() const { return a_; }
  /// Offset (exposed for tests).
  uint64_t b() const { return b_; }

 private:
  static constexpr double kP = static_cast<double>(kMersenne31);
  uint64_t a_;
  uint64_t b_;
};

/// 2-wise independent hash h(x) = ((a·x + b) mod p), p = 2^61 − 1.
///
/// Used whenever the hashed domain may exceed 2^31 elements — notably the
/// expanded vectors of Algorithm 3 whose length is n·L. 61 bits of output
/// also make hash-value collisions between distinct inputs (probability
/// 1/p ≈ 4.3e-19 per pair) negligible, which the MinHash match test
/// `h_a[i] == h_b[i]` relies on.
class CarterWegman61 {
 public:
  /// Draws (a, b) pseudo-randomly from (seed, stream); a in [1, p), b in [0, p).
  CarterWegman61(uint64_t seed, uint64_t stream);

  /// Hash value in [0, p) as an integer.
  uint64_t Hash(uint64_t x) const;

  /// Hash value mapped to the unit interval [0, 1).
  double HashUnit(uint64_t x) const {
    return static_cast<double>(Hash(x)) / kP;
  }

  /// Multiplier (exposed for tests).
  uint64_t a() const { return a_; }
  /// Offset (exposed for tests).
  uint64_t b() const { return b_; }

 private:
  static constexpr double kP = static_cast<double>(kMersenne61);
  uint64_t a_;
  uint64_t b_;
};

/// ±1-valued hash used by AMS/JL/CountSketch. 4-wise independence is
/// the textbook requirement for AMS variance bounds; we implement it as a
/// degree-3 polynomial over p = 2^61 − 1 whose low bit supplies the sign.
class SignHash {
 public:
  /// Draws four polynomial coefficients from (seed, stream).
  SignHash(uint64_t seed, uint64_t stream);

  /// Returns +1.0 or −1.0.
  double Sign(uint64_t x) const;

 private:
  uint64_t c_[4];
};

/// Which index → [0,1) hash family a sampling sketch uses.
///
/// The paper's analysis assumes uniformly random hash functions (§3,
/// Notation); its experiments use 2-wise Carter–Wegman hashing, which is
/// indistinguishable in practice for *scattered* supports but measurably
/// biases minimum-based union estimators on adversarial inputs (e.g. long
/// runs of consecutive indices, where a linear hash's values form an
/// arithmetic progression). kMixed64 is the default: a SplitMix64-style
/// bijective finalizer that behaves like the idealized uniform hash.
enum class HashKind {
  kMixed64 = 0,        ///< full-avalanche 64-bit mixing (idealized uniform)
  kCarterWegman61 = 1, ///< 2-wise independent over p = 2^61 − 1
  kCarterWegman31 = 2, ///< 2-wise independent over p = 2^31 − 1 (paper's §5)
};

/// A keyed hash from 64-bit indices to the unit interval [0, 1), generic
/// over `HashKind`. One instance corresponds to one hash function h_i; the
/// (seed, stream) pair selects the function from the family.
class IndexHasher {
 public:
  /// Selects function `stream` of the family seeded by `seed`.
  IndexHasher(HashKind kind, uint64_t seed, uint64_t stream);

  /// Hash value in [0, 1).
  double HashUnit(uint64_t x) const;

 private:
  HashKind kind_;
  uint64_t mix_key_;  // kMixed64
  uint64_t a_ = 0;    // Carter–Wegman coefficients
  uint64_t b_ = 0;
};

/// Bucket hash mapping keys to [0, num_buckets), 2-wise independent.
/// Used by CountSketch to pick the counter each coordinate lands in.
class BucketHash {
 public:
  /// Draws parameters from (seed, stream). `num_buckets` must be positive.
  BucketHash(uint64_t seed, uint64_t stream, uint32_t num_buckets);

  /// Bucket index in [0, num_buckets).
  uint32_t Bucket(uint64_t x) const;

  /// The configured number of buckets.
  uint32_t num_buckets() const { return num_buckets_; }

 private:
  CarterWegman61 cw_;
  uint32_t num_buckets_;
};

}  // namespace ipsketch

#endif  // IPSKETCH_COMMON_HASH_H_
