#include "core/wmh_estimator.h"

#include <algorithm>

#include "core/simd/dispatch.h"

namespace ipsketch {
namespace {

Status CheckCompatible(const WmhSketch& a, const WmhSketch& b) {
  if (a.num_samples() != b.num_samples()) {
    return Status::InvalidArgument("sketch sample counts differ");
  }
  if (a.num_samples() == 0) {
    return Status::InvalidArgument("sketches are empty");
  }
  if (a.seed != b.seed) {
    return Status::InvalidArgument("sketch seeds differ");
  }
  if (a.L != b.L) {
    return Status::InvalidArgument("sketch discretization parameters differ");
  }
  if (a.engine != b.engine) {
    // Engines are distributionally equivalent but realize different hash
    // functions; a cross-engine pair would estimate silently wrong.
    return Status::InvalidArgument("sketch engines differ");
  }
  if (a.dimension != b.dimension) {
    return Status::InvalidArgument("sketch dimensions differ");
  }
  return Status::Ok();
}

}  // namespace

Result<double> EstimateWmhInnerProduct(const WmhSketch& a, const WmhSketch& b,
                                       const WmhEstimateOptions& options) {
  IPS_RETURN_IF_ERROR(CheckCompatible(a, b));
  return EstimateWmhSpans(a.hashes.data(), a.values.data(), a.norm,
                          b.hashes.data(), b.values.data(), b.norm,
                          a.num_samples(), a.L, options);
}

Result<double> EstimateWmhSpans(const double* a_hashes,
                                const double* a_values, double a_norm,
                                const double* b_hashes,
                                const double* b_values, double b_norm,
                                size_t m, uint64_t L,
                                const WmhEstimateOptions& options) {
  if (m == 0) return Status::InvalidArgument("sketches are empty");
  if (a_norm == 0.0 || b_norm == 0.0) return 0.0;

  const double md = static_cast<double>(m);

  // Line 3 summation and, simultaneously, the ingredients of both union
  // estimators — the fused hot loop, dispatched to the widest kernel tier
  // the CPU supports (scalar and vector tiers are bit-identical).
  const simd::WmhPairStats stats = simd::ActiveKernel().wmh_pair(
      a_hashes, b_hashes, a_values, b_values, m);
  const double min_hash_sum = stats.min_hash_sum;
  const double weighted_match_sum = stats.weighted_match_sum;
  const size_t match_count = stats.match_count;

  const double Ld = static_cast<double>(L);
  double m_tilde = 0.0;
  switch (options.union_estimator) {
    case UnionEstimator::kFlajoletMartin: {
      // Line 2. min_hash_sum is positive with probability 1 (hashes are
      // continuous); guard the degenerate case anyway.
      if (min_hash_sum <= 0.0) {
        return Status::Internal("degenerate minimum-hash sum");
      }
      m_tilde = (md / min_hash_sum - 1.0) / Ld;
      break;
    }
    case UnionEstimator::kJaccardClosedForm: {
      // For unit vectors ‖ã‖² = ‖b̃‖² = 1: M = 2 − Σ min(ã², b̃²) and
      // J̄ = Σ min / M, hence M = 2 / (1 + J̄).
      const double j_hat = static_cast<double>(match_count) / md;
      m_tilde = 2.0 / (1.0 + j_hat);
      break;
    }
  }

  const double inner_unit = (m_tilde / md) * weighted_match_sum;
  return a_norm * b_norm * inner_unit;
}

WmhSketch TruncatedWmh(const WmhSketch& sketch, size_t m) {
  IPS_CHECK(m > 0 && m <= sketch.num_samples());
  WmhSketch out = sketch;
  out.hashes.resize(m);
  out.values.resize(m);
  return out;
}

}  // namespace ipsketch
