// Throughput benchmarks (google-benchmark) for §5's "Efficient Weighted
// Hashing": the dart engine's expected O(nnz + m·log m) vs the active-index
// engine's O(nnz·m·log L) vs the expanded reference's O(m·L), ICWS's
// O(nnz·m) (and its dart variant), and the baseline sketches.
//
// BM_WmhIngest is the per-engine ingest head-to-head at m = 128,
// L = 4096, small enough for kActiveIndex to run: kDart must beat it by ≥5×
// there. The service itself sketches at L = DefaultL(2^24) = 2^32 with
// m = 128 or 256; BM_WmhDart carries those points.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/icws.h"
#include "core/simd/dispatch.h"
#include "core/wmh_estimator.h"
#include "core/wmh_sketch.h"
#include "sketch/count_sketch.h"
#include "sketch/jl_sketch.h"
#include "sketch/kmv.h"
#include "sketch/minhash.h"
#include "sketch/quantize.h"
#include "vector/sparse_vector.h"

namespace ipsketch {
namespace {

SparseVector MakeVector(uint64_t dim, size_t nnz, uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<Entry> entries;
  entries.reserve(nnz);
  for (size_t i = 0; i < nnz; ++i) {
    double v = rng.NextGaussian();
    if (v == 0.0) v = 1.0;
    if (rng.NextUnit() < 0.1) v *= 25.0;
    entries.push_back({i * (dim / nnz), v});
  }
  return SparseVector::MakeOrDie(dim, std::move(entries));
}

// --- Weighted MinHash engines ---------------------------------------------

void BM_WmhActiveIndex(benchmark::State& state) {
  const size_t nnz = static_cast<size_t>(state.range(0));
  const uint64_t L = static_cast<uint64_t>(state.range(1));
  const auto v = MakeVector(1 << 20, nnz, 1);
  WmhOptions o;
  o.num_samples = 64;
  o.L = L;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SketchWmh(v, o).value());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * nnz *
                          o.num_samples);
}
// L sweeps far past what the reference engine can touch: runtime should
// grow only logarithmically along the L axis.
BENCHMARK(BM_WmhActiveIndex)
    ->Args({256, 1 << 12})
    ->Args({256, 1 << 18})
    ->Args({256, 1 << 24})
    ->Args({256, 1ll << 32})
    ->Args({1024, 1 << 18})
    ->Args({4096, 1 << 18});

void BM_WmhDart(benchmark::State& state) {
  const size_t nnz = static_cast<size_t>(state.range(0));
  const uint64_t L = static_cast<uint64_t>(state.range(1));
  const auto v = MakeVector(1 << 20, nnz, 1);
  WmhOptions o;
  o.num_samples = static_cast<size_t>(state.range(2));
  o.L = L;
  o.engine = WmhEngine::kDart;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SketchWmh(v, o).value());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * nnz *
                          o.num_samples);
}
// Args are (nnz, L, m). Runtime should be flat along the nnz and L axes
// beyond the O(nnz) rounding term: the dart count is m·(ln m + 4)
// regardless of L and of nnz. The last four points are the service's: a
// query-sized and a heavy catalog vector at L = DefaultL(2^24) = 2^32,
// m = 128 and 256.
BENCHMARK(BM_WmhDart)
    ->Args({256, 1 << 12, 64})
    ->Args({256, 1 << 18, 64})
    ->Args({256, 1 << 24, 64})
    ->Args({256, 1ll << 32, 64})
    ->Args({1024, 1 << 18, 64})
    ->Args({4096, 1 << 18, 64})
    ->Args({150, 1ll << 32, 128})
    ->Args({2000, 1ll << 32, 128})
    ->Args({150, 1ll << 32, 256})
    ->Args({2000, 1ll << 32, 256});

// The per-engine ingest head-to-head at m = 128, L = 4096: one sketcher
// context reused across vectors, exactly like SketchStore batch ingest.
// items_processed counts vectors, so "items_per_second" is ingest
// vectors/sec for each engine.
void BM_WmhIngest(benchmark::State& state) {
  const size_t kBatch = 32;
  const size_t nnz = 256;
  std::vector<SparseVector> batch;
  for (size_t i = 0; i < kBatch; ++i) {
    batch.push_back(MakeVector(1 << 20, nnz, i + 1));
  }
  WmhOptions o;
  o.num_samples = 128;
  o.L = 4096;
  o.engine = static_cast<WmhEngine>(state.range(0));
  auto sketcher = WmhSketcher::Make(o).value();
  WmhSketch sketch;
  for (auto _ : state) {
    for (const SparseVector& v : batch) {
      if (!sketcher.Sketch(v, &sketch).ok()) {
        state.SkipWithError("sketch");
        return;
      }
      benchmark::DoNotOptimize(sketch);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatch);
  state.SetLabel(o.engine == WmhEngine::kDart ? "dart" : "active_index");
}
BENCHMARK(BM_WmhIngest)
    ->Arg(static_cast<int>(WmhEngine::kActiveIndex))
    ->Arg(static_cast<int>(WmhEngine::kDart));

void BM_WmhExpandedReference(benchmark::State& state) {
  const uint64_t L = static_cast<uint64_t>(state.range(0));
  const auto v = MakeVector(1 << 20, 256, 1);
  WmhOptions o;
  o.num_samples = 64;
  o.L = L;
  o.engine = WmhEngine::kExpandedReference;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SketchWmh(v, o).value());
  }
  // O(m·L): each sample hashes every occupied slot (exactly L of them).
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          o.num_samples * static_cast<int64_t>(L));
}
BENCHMARK(BM_WmhExpandedReference)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

void BM_Icws(benchmark::State& state) {
  const size_t nnz = static_cast<size_t>(state.range(0));
  const auto v = MakeVector(1 << 20, nnz, 1);
  IcwsOptions o;
  o.num_samples = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SketchIcws(v, o).value());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * nnz *
                          o.num_samples);
}
BENCHMARK(BM_Icws)->Arg(256)->Arg(1024)->Arg(4096);

void BM_IcwsDart(benchmark::State& state) {
  const size_t nnz = static_cast<size_t>(state.range(0));
  const auto v = MakeVector(1 << 20, nnz, 1);
  IcwsOptions o;
  o.num_samples = 64;
  o.engine = IcwsEngine::kDart;
  auto sketcher = IcwsSketcher::Make(o).value();
  IcwsSketch sketch;
  for (auto _ : state) {
    if (!sketcher.Sketch(v, &sketch).ok()) {
      state.SkipWithError("sketch");
      return;
    }
    benchmark::DoNotOptimize(sketch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * nnz *
                          o.num_samples);
}
BENCHMARK(BM_IcwsDart)->Arg(256)->Arg(1024)->Arg(4096);

// --- Baselines -------------------------------------------------------------

void BM_MinHash(benchmark::State& state) {
  const auto v = MakeVector(1 << 20, static_cast<size_t>(state.range(0)), 1);
  MhOptions o;
  o.num_samples = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SketchMh(v, o).value());
  }
}
BENCHMARK(BM_MinHash)->Arg(256)->Arg(4096);

void BM_Kmv(benchmark::State& state) {
  const auto v = MakeVector(1 << 20, static_cast<size_t>(state.range(0)), 1);
  KmvOptions o;
  o.k = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SketchKmv(v, o).value());
  }
}
BENCHMARK(BM_Kmv)->Arg(256)->Arg(4096);

void BM_Jl(benchmark::State& state) {
  const auto v = MakeVector(1 << 20, static_cast<size_t>(state.range(0)), 1);
  JlOptions o;
  o.num_rows = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SketchJl(v, o).value());
  }
}
BENCHMARK(BM_Jl)->Arg(256)->Arg(4096);

void BM_CountSketch(benchmark::State& state) {
  const auto v = MakeVector(1 << 20, static_cast<size_t>(state.range(0)), 1);
  CountSketchOptions o;
  o.total_counters = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SketchCount(v, o).value());
  }
}
BENCHMARK(BM_CountSketch)->Arg(256)->Arg(4096);

// --- Estimation ------------------------------------------------------------
//
// The BM_*Estimate benchmarks take (m, tier): tier 0 pins the scalar
// kernel, tier 1 measures the dispatched SIMD tier; the label records which
// kernel actually ran, so per-kernel estimate throughput lands in the
// bench output.

const simd::EstimateKernel* TierKernel(int64_t tier) {
  return tier == 0 ? &simd::ScalarKernel() : nullptr;
}

void BM_WmhEstimate(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const auto a = MakeVector(1 << 20, 1024, 1);
  const auto b = MakeVector(1 << 20, 1024, 2);
  WmhOptions o;
  o.num_samples = m;
  const auto sa = SketchWmh(a, o).value();
  const auto sb = SketchWmh(b, o).value();
  simd::SetActiveKernelForTesting(TierKernel(state.range(1)));
  state.SetLabel(simd::ActiveKernelName());
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateWmhInnerProduct(sa, sb).value());
  }
  simd::SetActiveKernelForTesting(nullptr);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * m);
}
BENCHMARK(BM_WmhEstimate)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({1024, 0})
    ->Args({1024, 1});

void BM_IcwsEstimate(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const auto a = MakeVector(1 << 20, 1024, 1);
  const auto b = MakeVector(1 << 20, 1024, 2);
  IcwsOptions o;
  o.num_samples = m;
  o.engine = IcwsEngine::kDart;
  const auto sa = SketchIcws(a, o).value();
  const auto sb = SketchIcws(b, o).value();
  simd::SetActiveKernelForTesting(TierKernel(state.range(1)));
  state.SetLabel(simd::ActiveKernelName());
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateIcwsInnerProduct(sa, sb).value());
  }
  simd::SetActiveKernelForTesting(nullptr);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * m);
}
BENCHMARK(BM_IcwsEstimate)->Args({128, 0})->Args({128, 1});

void BM_CompactWmhEstimate(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const auto a = MakeVector(1 << 20, 1024, 1);
  const auto b = MakeVector(1 << 20, 1024, 2);
  WmhOptions o;
  o.num_samples = m;
  const auto sa = CompactFromWmh(SketchWmh(a, o).value());
  const auto sb = CompactFromWmh(SketchWmh(b, o).value());
  simd::SetActiveKernelForTesting(TierKernel(state.range(1)));
  state.SetLabel(simd::ActiveKernelName());
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateCompactWmhInnerProduct(sa, sb).value());
  }
  simd::SetActiveKernelForTesting(nullptr);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * m);
}
BENCHMARK(BM_CompactWmhEstimate)->Args({128, 0})->Args({128, 1});

void BM_BbitWmhEstimate(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const auto a = MakeVector(1 << 20, 1024, 1);
  const auto b = MakeVector(1 << 20, 1024, 2);
  WmhOptions o;
  o.num_samples = m;
  const auto sa = BbitFromWmh(SketchWmh(a, o).value(), 16).value();
  const auto sb = BbitFromWmh(SketchWmh(b, o).value(), 16).value();
  simd::SetActiveKernelForTesting(TierKernel(state.range(1)));
  state.SetLabel(simd::ActiveKernelName());
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateBbitWmhInnerProduct(sa, sb).value());
  }
  simd::SetActiveKernelForTesting(nullptr);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * m);
}
BENCHMARK(BM_BbitWmhEstimate)->Args({128, 0})->Args({128, 1});

void BM_MhEstimate(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const auto a = MakeVector(1 << 20, 1024, 1);
  const auto b = MakeVector(1 << 20, 1024, 2);
  MhOptions o;
  o.num_samples = m;
  const auto sa = SketchMh(a, o).value();
  const auto sb = SketchMh(b, o).value();
  simd::SetActiveKernelForTesting(TierKernel(state.range(1)));
  state.SetLabel(simd::ActiveKernelName());
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateMhInnerProduct(sa, sb).value());
  }
  simd::SetActiveKernelForTesting(nullptr);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * m);
}
BENCHMARK(BM_MhEstimate)->Args({128, 0})->Args({128, 1});

}  // namespace
}  // namespace ipsketch
