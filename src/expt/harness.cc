#include "expt/harness.h"

#include <algorithm>

#include "common/rng.h"
#include "common/stats.h"
#include "expt/error.h"
#include "vector/vector_ops.h"

namespace ipsketch {

Status SweepOptions::Validate() const {
  if (storage_words.empty()) {
    return Status::InvalidArgument("storage_words must be non-empty");
  }
  for (double w : storage_words) {
    if (w <= 0.0) return Status::InvalidArgument("storage budgets must be positive");
  }
  if (trials == 0) return Status::InvalidArgument("trials must be positive");
  return Status::Ok();
}

Result<SweepResult> RunStorageSweep(
    const std::vector<std::unique_ptr<MethodEvaluator>>& methods,
    const std::vector<EvalPair>& pairs, const SweepOptions& options) {
  IPS_RETURN_IF_ERROR(options.Validate());
  if (methods.empty()) return Status::InvalidArgument("no methods");
  if (pairs.empty()) return Status::InvalidArgument("no pairs");

  const double max_words =
      *std::max_element(options.storage_words.begin(),
                        options.storage_words.end());

  SweepResult result;
  result.storage_words = options.storage_words;
  for (const auto& m : methods) result.method_names.push_back(m->name());
  result.mean_errors.assign(methods.size(),
                            std::vector<double>(options.storage_words.size(),
                                                0.0));

  size_t cells = 0;
  for (size_t p = 0; p < pairs.size(); ++p) {
    const EvalPair& pair = pairs[p];
    const double truth = Dot(pair.a, pair.b);
    const double norm_product = pair.a.Norm() * pair.b.Norm();
    for (size_t t = 0; t < options.trials; ++t) {
      const uint64_t trial_seed = MixCombine(options.seed, p, t);
      for (size_t mi = 0; mi < methods.size(); ++mi) {
        IPS_RETURN_IF_ERROR(
            methods[mi]->Prepare(pair.a, pair.b, max_words, trial_seed));
        for (size_t si = 0; si < options.storage_words.size(); ++si) {
          auto est = methods[mi]->Estimate(options.storage_words[si]);
          IPS_RETURN_IF_ERROR(est.status());
          result.mean_errors[mi][si] +=
              ScaledError(est.value(), truth, norm_product);
        }
      }
    }
    cells += options.trials;
  }
  for (auto& row : result.mean_errors) {
    for (auto& v : row) v /= static_cast<double>(cells);
  }
  return result;
}

Result<std::vector<PairErrors>> ComputePairErrors(
    const std::vector<std::unique_ptr<MethodEvaluator>>& methods,
    const std::vector<EvalPair>& pairs, double storage_words, size_t trials,
    uint64_t seed) {
  if (methods.empty()) return Status::InvalidArgument("no methods");
  if (trials == 0) return Status::InvalidArgument("trials must be positive");

  std::vector<PairErrors> out;
  out.reserve(pairs.size());
  for (size_t p = 0; p < pairs.size(); ++p) {
    const EvalPair& pair = pairs[p];
    PairErrors obs;
    obs.overlap = OverlapRatio(pair.a, pair.b);
    {
      // Kurtosis of the pooled non-zero values — used when the caller has
      // no richer covariate (callers may overwrite it).
      RunningMoments m;
      for (const Entry& e : pair.a.entries()) m.Add(e.value);
      for (const Entry& e : pair.b.entries()) m.Add(e.value);
      obs.kurtosis = m.Kurtosis();
    }
    obs.errors.assign(methods.size(), 0.0);
    const double truth = Dot(pair.a, pair.b);
    const double norm_product = pair.a.Norm() * pair.b.Norm();
    for (size_t t = 0; t < trials; ++t) {
      const uint64_t trial_seed = MixCombine(seed, p, t);
      for (size_t mi = 0; mi < methods.size(); ++mi) {
        IPS_RETURN_IF_ERROR(
            methods[mi]->Prepare(pair.a, pair.b, storage_words, trial_seed));
        auto est = methods[mi]->Estimate(storage_words);
        IPS_RETURN_IF_ERROR(est.status());
        obs.errors[mi] += ScaledError(est.value(), truth, norm_product);
      }
    }
    for (auto& e : obs.errors) e /= static_cast<double>(trials);
    out.push_back(std::move(obs));
  }
  return out;
}

WinningTable BuildWinningTable(const std::vector<PairErrors>& observations,
                               size_t target, size_t baseline,
                               std::vector<double> overlap_edges,
                               std::vector<double> kurtosis_edges) {
  WinningTable table;
  table.overlap_edges = std::move(overlap_edges);
  table.kurtosis_edges = std::move(kurtosis_edges);
  const size_t rows = table.kurtosis_edges.size() + 1;
  const size_t cols = table.overlap_edges.size() + 1;
  table.diff.assign(rows, std::vector<double>(cols, 0.0));
  table.count.assign(rows, std::vector<size_t>(cols, 0));

  auto bucket = [](double x, const std::vector<double>& edges) {
    size_t i = 0;
    while (i < edges.size() && x > edges[i]) ++i;
    return i;
  };

  for (const PairErrors& obs : observations) {
    IPS_CHECK(target < obs.errors.size() && baseline < obs.errors.size());
    const size_t r = bucket(obs.kurtosis, table.kurtosis_edges);
    const size_t c = bucket(obs.overlap, table.overlap_edges);
    table.diff[r][c] += obs.errors[target] - obs.errors[baseline];
    ++table.count[r][c];
  }
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (table.count[r][c] > 0) {
        table.diff[r][c] /= static_cast<double>(table.count[r][c]);
      }
    }
  }
  return table;
}

}  // namespace ipsketch
