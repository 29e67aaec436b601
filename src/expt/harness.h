// Experiment harness: storage sweeps (Figures 4 and 6) and bucketed
// winning tables (Figure 5).

#ifndef IPSKETCH_EXPT_HARNESS_H_
#define IPSKETCH_EXPT_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sketch/estimator_registry.h"
#include "vector/sparse_vector.h"

namespace ipsketch {

/// A (vector, vector) workload item.
struct EvalPair {
  SparseVector a;
  SparseVector b;
};

/// Configuration for `RunStorageSweep`.
struct SweepOptions {
  /// Storage budgets in 64-bit words (the x-axis of Figures 4 and 6).
  std::vector<double> storage_words = {100, 200, 300, 400};
  /// Independent sketching trials per pair ("average error over 10
  /// independent trials", §5).
  size_t trials = 10;
  /// Master seed; trial t of pair p uses a sub-seed derived from (seed,p,t).
  uint64_t seed = 0;

  /// Validates field ranges.
  Status Validate() const;
};

/// Mean scaled errors from a storage sweep.
struct SweepResult {
  std::vector<std::string> method_names;
  std::vector<double> storage_words;
  /// mean_errors[method][storage_index], averaged over pairs × trials.
  std::vector<std::vector<double>> mean_errors;
};

/// Runs every method over every (pair × trial × storage budget) cell.
/// Methods are Prepared once per (pair, trial) at the maximum budget and
/// evaluated at each budget by truncation.
Result<SweepResult> RunStorageSweep(
    const std::vector<std::unique_ptr<MethodEvaluator>>& methods,
    const std::vector<EvalPair>& pairs, const SweepOptions& options);

/// One observation for a winning table: covariates plus per-method errors.
struct PairErrors {
  double overlap = 0.0;
  double kurtosis = 0.0;
  /// Scaled error per method, aligned with the method list used to fill it.
  std::vector<double> errors;
};

/// Computes per-pair scaled errors of every method at one fixed storage
/// budget (Figure 5 uses 400 words), averaged over `trials` sketch seeds.
Result<std::vector<PairErrors>> ComputePairErrors(
    const std::vector<std::unique_ptr<MethodEvaluator>>& methods,
    const std::vector<EvalPair>& pairs, double storage_words, size_t trials,
    uint64_t seed);

/// A Figure-5-style winning table: cells bucket pairs by (kurtosis row,
/// overlap column) and hold the mean difference err_target − err_baseline.
struct WinningTable {
  std::vector<double> overlap_edges;   ///< column bucket upper edges
  std::vector<double> kurtosis_edges;  ///< row bucket upper edges
  /// diff[row][col]: mean(err_target − err_baseline); negative ⇒ target wins.
  std::vector<std::vector<double>> diff;
  /// count[row][col]: observations per cell.
  std::vector<std::vector<size_t>> count;
};

/// Builds the winning table of method index `target` against `baseline`
/// from per-pair errors. Bucket edges are upper bounds; the last bucket is
/// open-ended.
WinningTable BuildWinningTable(const std::vector<PairErrors>& observations,
                               size_t target, size_t baseline,
                               std::vector<double> overlap_edges,
                               std::vector<double> kurtosis_edges);

}  // namespace ipsketch

#endif  // IPSKETCH_EXPT_HARNESS_H_
