#include "sketch/minhash.h"

#include <algorithm>

#include "common/hash.h"
#include "core/simd/dispatch.h"

namespace ipsketch {

Status MhOptions::Validate() const {
  if (num_samples == 0) {
    return Status::InvalidArgument("num_samples must be positive");
  }
  return Status::Ok();
}

Result<MhSketch> SketchMh(const SparseVector& a, const MhOptions& options) {
  IPS_RETURN_IF_ERROR(options.Validate());
  MhSketch sketch;
  sketch.seed = options.seed;
  sketch.dimension = a.dimension();
  sketch.hash_kind = options.hash_kind;
  if (a.empty()) {
    // Hash supremum: keeps min(h_a, h_b) equal to h_b in the union
    // estimator while making matches impossible.
    sketch.hashes.assign(options.num_samples, 1.0);
    sketch.values.assign(options.num_samples, 0.0);
    return sketch;
  }
  sketch.hashes.resize(options.num_samples);
  sketch.values.resize(options.num_samples);
  for (size_t s = 0; s < options.num_samples; ++s) {
    const IndexHasher h(options.hash_kind, options.seed, s);
    double best_hash = 2.0;
    double best_value = 0.0;
    for (const Entry& e : a.entries()) {
      const double hv = h.HashUnit(e.index);
      if (hv < best_hash) {
        best_hash = hv;
        best_value = e.value;
      }
    }
    sketch.hashes[s] = best_hash;
    sketch.values[s] = best_value;
  }
  return sketch;
}

Result<double> EstimateMhInnerProduct(const MhSketch& a, const MhSketch& b) {
  if (a.num_samples() != b.num_samples()) {
    return Status::InvalidArgument("sketch sample counts differ");
  }
  if (a.num_samples() == 0) return Status::InvalidArgument("sketches are empty");
  if (a.seed != b.seed) return Status::InvalidArgument("sketch seeds differ");
  if (a.hash_kind != b.hash_kind) {
    return Status::InvalidArgument("sketch hash families differ");
  }
  if (a.dimension != b.dimension) {
    return Status::InvalidArgument("sketch dimensions differ");
  }

  return EstimateMhSpans(a.hashes.data(), a.values.data(), b.hashes.data(),
                         b.values.data(), a.num_samples());
}

Result<double> EstimateMhSpans(const double* a_hashes, const double* a_values,
                               const double* b_hashes, const double* b_values,
                               size_t m) {
  if (m == 0) return Status::InvalidArgument("sketches are empty");
  // Fused min/match hot loop, dispatched to the widest kernel tier the CPU
  // supports (scalar and vector tiers are bit-identical). The 1.0 sentinel
  // (empty sketch) never counts as a match.
  const simd::MhPairStats stats = simd::ActiveKernel().mh_pair(
      a_hashes, b_hashes, a_values, b_values, m);
  if (stats.min_hash_sum <= 0.0) {
    return Status::Internal("degenerate minimum-hash sum");
  }
  const double md = static_cast<double>(m);
  const double u_tilde = md / stats.min_hash_sum - 1.0;
  return (u_tilde / md) * stats.match_sum;
}

MhSketch TruncatedMh(const MhSketch& sketch, size_t m) {
  IPS_CHECK(m > 0 && m <= sketch.num_samples());
  MhSketch out = sketch;
  out.hashes.resize(m);
  out.values.resize(m);
  return out;
}

}  // namespace ipsketch
