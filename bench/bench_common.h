// Shared helpers for the plain (non-google-benchmark) bench binaries: flag
// parsing, the service benches' corpus and store options, a clock, the
// sustained-rate loops, and the one writer of the BENCH_service.json record.

#ifndef IPSKETCH_BENCH_BENCH_COMMON_H_
#define IPSKETCH_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/synthetic.h"
#include "service/sketch_store.h"

namespace ipsketch {
namespace bench {

/// True iff `--name` appears anywhere in argv.
inline bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == name) return true;
  }
  return false;
}

/// The operand following `--name` in argv, or `fallback` when the flag is
/// absent (or has no operand).
inline std::string FlagValue(int argc, char** argv, const char* name,
                             const std::string& fallback = "") {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == name) return argv[i + 1];
  }
  return fallback;
}

/// Workload multiplier: the first non-flag argument if present (≥ 1), else
/// 1. All benches default to a configuration that finishes in tens of
/// seconds; pass 2-10 to approach the paper's full workload sizes. `--flag
/// value` pairs (e.g. --out PATH) and bare `--flag` switches are skipped.
inline size_t ScaleFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      // Value-taking flags consume their operand too.
      if (arg == "--out" || arg == "--metrics-out" || arg == "--seed") ++i;
      continue;
    }
    const long v = std::strtol(arg.c_str(), nullptr, 10);
    if (v >= 1) return static_cast<size_t>(v);
    return 1;
  }
  return 1;
}

/// The base RNG seed: `--seed N` if present, else `fallback`. Every bench
/// derives all of its synthetic data and sketch seeds from this one value,
/// so two runs with the same seed (and scale) see identical workloads and
/// `--seed` sweeps give cheap variance estimates.
inline uint64_t SeedFromArgs(int argc, char** argv, uint64_t fallback = 7) {
  const std::string v = FlagValue(argc, argv, "--seed");
  if (v.empty()) return fallback;
  return static_cast<uint64_t>(std::strtoull(v.c_str(), nullptr, 10));
}

/// Prints the standard bench banner.
inline void Banner(const char* experiment_id, const char* description,
                   size_t scale) {
  std::printf("=== %s ===\n%s\n(workload scale %zux; pass an integer arg to "
              "scale up)\n\n",
              experiment_id, description, scale);
}

// --- the service corpus -----------------------------------------------------
// bench_service_throughput and bench_saturation serve the same catalog:
// sparse vectors of kServiceNnz coordinates out of kServiceDimension,
// sketched by `wmh` at m = kServiceNumSamples into a 32-shard store.

inline constexpr uint64_t kServiceDimension = 100000;
inline constexpr size_t kServiceNnz = 300;
inline constexpr size_t kServiceNumSamples = 256;
inline constexpr char kServiceFamily[] = "wmh";

/// Service corpus vector `seed`: kServiceNnz distinct coordinates with
/// values uniform in [-1, 1), all drawn from `seed`.
inline SparseVector ServiceVector(uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<Entry> entries;
  for (uint64_t index :
       SampleDistinctIndices(kServiceDimension, kServiceNnz, seed)) {
    entries.push_back({index, rng.NextUnit() * 2.0 - 1.0});
  }
  return SparseVector::MakeOrDie(kServiceDimension, std::move(entries));
}

/// Store options for the service corpus with family seed `seed`, under the
/// WMH `engine` when non-null (else the family's default engine).
inline SketchStoreOptions ServiceStoreOptions(uint64_t seed,
                                              const char* engine = nullptr) {
  SketchStoreOptions options;
  options.family = kServiceFamily;
  options.sketch.dimension = kServiceDimension;
  options.sketch.num_samples = kServiceNumSamples;
  options.sketch.seed = seed;
  if (engine != nullptr) options.sketch.params["engine"] = engine;
  options.num_shards = 32;
  return options;
}

// --- timing -----------------------------------------------------------------

/// Seconds on the steady clock since `start`.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Calls `op(call)` for call = 0, 1, 2, ... back to back until at least
/// `window_secs` have passed, and returns the calls per second. Multiply by
/// the units one call does (pairs, queries) for a rate in those units.
template <typename Op>
double SustainedRate(double window_secs, Op op) {
  const auto start = std::chrono::steady_clock::now();
  size_t calls = 0;
  double secs = 0.0;
  do {
    op(calls++);
    secs = SecondsSince(start);
  } while (secs < window_secs);
  return static_cast<double>(calls) / secs;
}

/// The fastest of `windows` SustainedRate windows of `window_secs` each, so
/// a burst of load from elsewhere on the machine does not read as the op's
/// cost. `op` sees its call count restart at 0 in every window.
template <typename Op>
double FastestRate(int windows, double window_secs, Op op) {
  double best = 0.0;
  for (int window = 0; window < windows; ++window) {
    best = std::max(best, SustainedRate(window_secs, op));
  }
  return best;
}

// --- the bench record -------------------------------------------------------

/// printf into a std::string.
[[gnu::format(printf, 1, 2)]] inline std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list measure;
  va_copy(measure, args);
  const int size = std::vsnprintf(nullptr, 0, fmt, measure);
  va_end(measure);
  std::string out(size > 0 ? static_cast<size_t>(size) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

/// One top-level member of a bench record: its key, and its value as JSON
/// text.
using JsonMember = std::pair<std::string, std::string>;

/// Index one past the JSON value starting at `i` (first non-space char):
/// balanced braces/brackets with string-aware scanning, or a scalar run.
inline size_t SkipJsonValue(const std::string& s, size_t i) {
  const auto skip_string = [&s](size_t j) {
    ++j;  // opening quote
    while (j < s.size() && s[j] != '"') j += (s[j] == '\\') ? 2 : 1;
    return j < s.size() ? j + 1 : j;
  };
  if (i >= s.size()) return i;
  if (s[i] == '"') return skip_string(i);
  if (s[i] == '{' || s[i] == '[') {
    int depth = 0;
    for (size_t j = i; j < s.size();) {
      const char c = s[j];
      if (c == '"') {
        j = skip_string(j);
      } else {
        if (c == '{' || c == '[') ++depth;
        if ((c == '}' || c == ']') && --depth == 0) return j + 1;
        ++j;
      }
    }
    return s.size();
  }
  while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']' &&
         s[i] != '\n') {
    ++i;
  }
  return i;
}

/// `s` from `i` on, past any whitespace.
inline size_t SkipSpace(const std::string& s, size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return i;
}

/// `value` without trailing whitespace.
inline std::string TrimEnd(std::string value) {
  while (!value.empty() &&
         std::isspace(static_cast<unsigned char>(value.back()))) {
    value.pop_back();
  }
  return value;
}

/// Appends the top-level members of the JSON object text `s` to `members`,
/// values as raw text, in order. Nested members are part of their parent's
/// value, never members themselves. False unless `s` is one JSON object.
inline bool ParseMembers(const std::string& s,
                         std::vector<JsonMember>* members) {
  size_t i = SkipSpace(s, 0);
  if (i >= s.size() || s[i] != '{') return false;
  i = SkipSpace(s, i + 1);
  if (i < s.size() && s[i] == '}') return true;
  while (i < s.size() && s[i] == '"') {
    const size_t key_end = SkipJsonValue(s, i);
    const size_t colon = SkipSpace(s, key_end);
    if (colon >= s.size() || s[colon] != ':') return false;
    const size_t value_start = SkipSpace(s, colon + 1);
    const size_t value_end = SkipJsonValue(s, value_start);
    std::string value = TrimEnd(s.substr(value_start, value_end - value_start));
    if (value.empty()) return false;
    members->emplace_back(s.substr(i + 1, key_end - i - 2), std::move(value));
    i = SkipSpace(s, value_end);
    if (i < s.size() && s[i] == '}') return true;
    if (i >= s.size() || s[i] != ',') return false;
    i = SkipSpace(s, i + 1);
  }
  return false;
}

/// Writes `fresh` into the bench record at `path` and reports the write on
/// stdout. The record's other top-level members keep their text and order;
/// a member `fresh` names is replaced, wherever it stood, and the fresh
/// members follow the kept ones. An absent or non-object file starts a new
/// record. So benches may write one record in any order, and re-running one
/// replaces only its own members. False if the file cannot be written.
inline bool WriteMembers(const std::string& path,
                         const std::vector<JsonMember>& fresh) {
  std::string text;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buffer[1 << 16];
    size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      text.append(buffer, got);
    }
    std::fclose(f);
  }
  std::vector<JsonMember> members;
  if (!ParseMembers(text, &members)) members.clear();
  std::set<std::string> names;
  for (const JsonMember& member : fresh) names.insert(member.first);
  std::erase_if(members, [&names](const JsonMember& member) {
    return names.count(member.first) != 0;
  });
  members.insert(members.end(), fresh.begin(), fresh.end());

  std::string out = "{";
  const char* separator = "\n  \"";
  for (const JsonMember& member : members) {
    out += separator + member.first + "\": " + TrimEnd(member.second);
    separator = ",\n  \"";
  }
  out += "\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "wb");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) {
    std::printf("\ncould not write %s\n", path.c_str());
    return false;
  }
  std::string written;
  for (const JsonMember& member : fresh) {
    written += (written.empty() ? "" : ", ") + member.first;
  }
  std::printf("\nwrote %s (%s)\n", path.c_str(), written.c_str());
  return true;
}

}  // namespace bench
}  // namespace ipsketch

#endif  // IPSKETCH_BENCH_BENCH_COMMON_H_
