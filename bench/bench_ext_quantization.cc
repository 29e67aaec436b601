// Extension experiment: quantized WMH sketches (the paper's §5 future-work
// note, "Standard quantization tricks could likely be used to reduce the
// size of numbers in all sketches").
//
// At equal *storage*, a quantized sketch affords more samples:
//   full     — 64-bit value + 32-bit hash       → m = ⌊(W−1)/1.5⌋
//   compact  — 32-bit value + 32-bit hash       → m = W−1
//   b-bit 16 — 32-bit value + 16-bit fingerprint → m = ⌊(W−1)·4/3⌋
//   b-bit 8  — 32-bit value +  8-bit fingerprint → m = ⌊(W−1)·8/5⌋
// This bench measures whether the extra samples buy accuracy on the §5.1
// synthetic workload.
//
// Besides the human-readable table, the bench writes
// BENCH_quantization.json to the working directory (mean scaled error per
// encoding per storage budget) so CI can track the accuracy trade-off
// across commits, like bench_service_throughput's BENCH_service.json.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/wmh_estimator.h"
#include "core/wmh_sketch.h"
#include "data/synthetic.h"
#include "expt/ascii.h"
#include "expt/error.h"
#include "sketch/quantize.h"
#include "vector/vector_ops.h"

namespace ipsketch {
namespace {

size_t SamplesFor(double words, double words_per_sample) {
  const double m = (words - 1.0) / words_per_sample;
  return m < 1.0 ? 1 : static_cast<size_t>(m);
}

/// One measured storage budget: mean scaled error per encoding.
struct BudgetRow {
  double words = 0.0;
  double err_full = 0.0;
  double err_compact = 0.0;
  double err_b16 = 0.0;
  double err_b8 = 0.0;
};

int Run(size_t scale) {
  SyntheticPairOptions gen;  // §5.1 defaults
  gen.overlap = 0.1;
  const size_t kPairs = 2 * scale;
  const int kSeeds = static_cast<int>(6 * scale);

  std::vector<BudgetRow> measured;
  std::vector<std::vector<std::string>> rows;
  for (double words : {100.0, 200.0, 400.0}) {
    double err_full = 0.0, err_compact = 0.0, err_b16 = 0.0, err_b8 = 0.0;
    size_t cells = 0;
    for (size_t p = 0; p < kPairs; ++p) {
      gen.seed = 808 + p;
      const auto pair = GenerateSyntheticPair(gen).value();
      const double truth = Dot(pair.a, pair.b);
      const double np = pair.a.Norm() * pair.b.Norm();
      for (int seed = 0; seed < kSeeds; ++seed) {
        WmhOptions o;
        o.seed = seed;

        o.num_samples = SamplesFor(words, 1.5);
        const auto fa = SketchWmh(pair.a, o).value();
        const auto fb = SketchWmh(pair.b, o).value();
        err_full += ScaledError(EstimateWmhInnerProduct(fa, fb).value(),
                                truth, np);

        o.num_samples = SamplesFor(words, 1.0);
        const auto ca = CompactFromWmh(SketchWmh(pair.a, o).value());
        const auto cb = CompactFromWmh(SketchWmh(pair.b, o).value());
        err_compact += ScaledError(
            EstimateCompactWmhInnerProduct(ca, cb).value(), truth, np);

        o.num_samples = SamplesFor(words, 48.0 / 64.0);
        const auto ba16 =
            BbitFromWmh(SketchWmh(pair.a, o).value(), 16).value();
        const auto bb16 =
            BbitFromWmh(SketchWmh(pair.b, o).value(), 16).value();
        err_b16 += ScaledError(
            EstimateBbitWmhInnerProduct(ba16, bb16).value(), truth, np);

        o.num_samples = SamplesFor(words, 40.0 / 64.0);
        const auto ba8 = BbitFromWmh(SketchWmh(pair.a, o).value(), 8).value();
        const auto bb8 = BbitFromWmh(SketchWmh(pair.b, o).value(), 8).value();
        err_b8 += ScaledError(EstimateBbitWmhInnerProduct(ba8, bb8).value(),
                              truth, np);
        ++cells;
      }
    }
    const double c = static_cast<double>(cells);
    measured.push_back({words, err_full / c, err_compact / c, err_b16 / c,
                        err_b8 / c});
    rows.push_back({FormatG(words, 4), FormatG(err_full / c, 4),
                    FormatG(err_compact / c, 4), FormatG(err_b16 / c, 4),
                    FormatG(err_b8 / c, 4)});
  }

  std::printf("mean scaled error at equal storage, 10%% overlap synthetic\n"
              "(each column uses as many samples as its encoding affords)\n\n");
  PrintAlignedTable(std::cout,
                    {"storage (words)", "full (1.5w/m)", "compact (1w/m)",
                     "b=16 (0.75w/m)", "b=8 (0.625w/m)"},
                    rows);
  std::printf(
      "\nexpected: compact matches or beats full at equal storage (32-bit\n"
      "hashes lose nothing, extra samples help); b-bit variants trade\n"
      "spurious-match noise for even more samples and win at small budgets\n"
      "— the trend the paper anticipated from the quantized-JL literature.\n");

  // --- machine-readable record ---------------------------------------------
  std::string rows_json = "[";
  for (size_t i = 0; i < measured.size(); ++i) {
    const BudgetRow& r = measured[i];
    rows_json += bench::Format(
        "%s\n    {\"storage_words\": %.0f, \"err_full\": %.6g, "
        "\"err_compact\": %.6g, \"err_b16\": %.6g, \"err_b8\": %.6g}",
        i == 0 ? "" : ",", r.words, r.err_full, r.err_compact, r.err_b16,
        r.err_b8);
  }
  rows_json += "\n  ]";
  std::vector<bench::JsonMember> members;
  members.emplace_back("bench", "\"quantization\"");
  members.emplace_back("scale", std::to_string(scale));
  members.emplace_back("pairs", std::to_string(kPairs));
  members.emplace_back("seeds", std::to_string(kSeeds));
  members.emplace_back("rows", rows_json);
  return bench::WriteMembers("BENCH_quantization.json", members) ? 0 : 1;
}

}  // namespace
}  // namespace ipsketch

int main(int argc, char** argv) {
  const size_t scale = ipsketch::bench::ScaleFromArgs(argc, argv);
  ipsketch::bench::Banner("Extension: quantized WMH sketches",
                          "full vs 32-bit vs b-bit encodings at equal storage",
                          scale);
  return ipsketch::Run(scale);
}
