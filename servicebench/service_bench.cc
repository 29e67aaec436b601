// The service benchmark: runs one named workload against the ipsketch
// service through its public entry points (all reached via catalog.h),
// checks every answer it gets back, and prints each metric by name with its
// unit. The last line of stdout is one JSON object with the keys "correct",
// "attempted", "failed" and "metrics".
//
//   service_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--out-dir DIR]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with the benchmark's spans on and reports the per-layer metrics,
// writing the spans to DIR/trace-<workload>-<seed>.jsonl. See README.md in
// this directory for the workloads and how to read the numbers.
//
// Load shape: this thread generates load; one 3-worker ThreadPool runs the
// FrontDoor batches, the ingest tasks and the set-up. Offered rates are
// fixed constants per workload. Arrivals follow a seeded Poisson schedule,
// and a request's latency runs from its scheduled time to its completion.

#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_math.h"
#include "catalog.h"
#include "common/rng.h"
#include "corpus.h"
#include "service/metrics.h"
#include "spans.h"

namespace servicebench {
namespace {

using ipsketch::FrontDoor;
using ipsketch::FrontDoorOptions;
using ipsketch::QueryEngine;
using ipsketch::QueryHit;
using ipsketch::StatusCode;
using ipsketch::ThreadPool;
using ipsketch::metrics::HistogramSnapshot;
using ipsketch::metrics::NowNs;

constexpr size_t kTopK = 10;
constexpr size_t kPoolThreads = 3;
/// Recall and estimator error are measured on every kRecallStride-th
/// query, which spreads the sample over every group.
constexpr size_t kRecallStride = 4;
/// The front door's admission queue. Any failed request fails the run, so
/// the queue holds about 0.8 s of arrivals at the highest fixed rate: a
/// host stall then shows as latency rather than as shed requests.
constexpr size_t kQueueDepth = 4096;
/// Closed-loop requests in flight: below kQueueDepth, so the closed loop
/// never sheds.
constexpr size_t kClosedOutstanding = 64;
/// Untimed open-loop warm-up before the measured phases.
constexpr double kWarmupSeconds = 1.0;
/// A run whose generator sent its p99 arrival later than this is invalid.
constexpr double kMaxLagP99Us = 50000.0;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  CatalogOptions catalog;
  CorpusOptions corpus;
  /// Open-loop offered rate over all operations, per second — a constant,
  /// about half of what the service sustains on a 4-core host.
  double rate_per_s;
  double topk_share;
  double estimate_share;  ///< the rest of the mix is ingest
  size_t setup_repeats;
};

// Catalog: {m, banded}. Corpus: {background docs, TF-IDF groups, §5.1
// groups, heavy-tailed vectors}.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      // The production read path: banded top-k over a catalog larger than
      // the last-level cache.
      {"search_banded", {128, true}, {70000, 800, 200, 0}, 5000.0, 0.72, 0.05,
       3},
      // Exact snapshot scans over an L3-resident catalog; the index is
      // absent, so index changes must not move it.
      {"scan_exact", {256, false}, {1800, 60, 60, 0}, 2100.0, 0.476, 0.048, 5},
      // Write-dominant: heavy-tailed ingest into a banded catalog with
      // ~3k sketches per shard, reads riding along.
      {"ingest_heavy", {128, true}, {44000, 400, 100, 1024}, 3500.0, 0.20,
       0.02, 5},
  };
  return workloads;
}

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed &&
         args->seconds > 0.0 && args->trace >= 0;
}

// ---------------------------------------------------------------------------
// Helpers

double MsSince(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// VmRSS of this process in MB, from /proc/self/status (0 if unreadable).
double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Top-k answers equal id for id and estimate bit for bit.
bool SameHits(const std::vector<QueryHit>& a, const std::vector<QueryHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].estimate, &b[i].estimate, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool SameDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Exported-metric readings the per-layer metrics are deltas of. Shed and
/// expired requests are not among them: the run counts every failed
/// request itself, and any one fails the run.
struct Exported {
  HistogramSnapshot queue_wait, batch_size, pool_wait, pool_run;
};

Exported ReadExported() {
  auto& reg = ipsketch::metrics::MetricsRegistry::Global();
  Exported e;
  e.queue_wait = reg.GetHistogram("ipsketch_frontdoor_queue_wait_ns").Snapshot();
  e.batch_size = reg.GetHistogram("ipsketch_frontdoor_batch_size").Snapshot();
  e.pool_wait = reg.GetHistogram("ipsketch_pool_task_wait_ns").Snapshot();
  e.pool_run = reg.GetHistogram("ipsketch_pool_task_run_ns").Snapshot();
  return e;
}

HistogramSnapshot Delta(const HistogramSnapshot& after,
                        const HistogramSnapshot& before) {
  HistogramSnapshot d;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  d.max = after.max;  // the exact max of a window is not exported
  for (size_t i = 0; i < ipsketch::metrics::kNumBuckets; ++i) {
    d.buckets[i] = after.buckets[i] - before.buckets[i];
  }
  return d;
}

/// The span name of one QueryTrace stage.
const char* StageSpanName(const char* stage) {
  static const char* const kStages[][2] = {
      {"sketch-query", "engine.span.sketch-query"},
      {"shard-scan", "engine.span.shard-scan"},
      {"band-query", "engine.span.band-query"},
      {"index-probe", "engine.span.index-probe"},
      {"heap-merge", "engine.span.heap-merge"},
  };
  for (const auto& s : kStages) {
    if (std::strcmp(stage, s[0]) == 0) return s[1];
  }
  return "engine.span.other";
}

constexpr const char* kStageMetrics[] = {"sketch-query", "shard-scan",
                                         "band-query", "index-probe",
                                         "heap-merge"};

// ---------------------------------------------------------------------------
// The run

enum class Kind : uint8_t { kTopK, kEstimate, kIngest };
enum class Outcome : uint8_t { kPending, kOk, kWrong, kShed, kExpired, kError };

struct Arrival {
  uint64_t offset_ns = 0;
  Kind kind = Kind::kTopK;
  uint32_t operand = 0;  ///< query, estimate-pair, or ingest-id index
};

/// What happened to one open-loop arrival. Written once by the thread that
/// completes it, read after the phase drains.
struct OpRecord {
  uint64_t scheduled_ns = 0;
  uint64_t sent_ns = 0;
  uint64_t done_ns = 0;
  Kind kind = Kind::kTopK;
  Outcome outcome = Outcome::kPending;
};

/// One family Sketcher per pool worker, made on the worker's first ingest.
class WorkerSketchers {
 public:
  explicit WorkerSketchers(const Catalog* catalog) : catalog_(catalog) {}

  ipsketch::Sketcher* ForThisThread() {
    ipsketch::MutexLock lock(&mu_);
    auto& sketcher = by_thread_[std::this_thread::get_id()];
    if (sketcher == nullptr) sketcher = catalog_->MakeSketcher();
    return sketcher.get();
  }

 private:
  const Catalog* catalog_;
  // kLeaf: held for the map lookup only.
  ipsketch::Mutex mu_{ipsketch::LockRank::kLeaf};
  std::map<std::thread::id, std::unique_ptr<ipsketch::Sketcher>> by_thread_
      IPS_GUARDED_BY(mu_);
};

struct PhaseResult {
  LatencySamples topk, estimate, ingest;  ///< ms, from scheduled time
  std::vector<double> lag_us;
  double wall_s = 0.0;  ///< until the last request completed
  Exported before, after;
};

class Run {
 public:
  Run(const Workload& workload, const Args& args, Corpus corpus)
      : w_(workload),
        args_(args),
        corpus_(std::move(corpus)),
        pool_(kPoolThreads),
        trace_log_(args.trace == 1 ? &spans_ : nullptr) {}

  int Main();

 private:
  // --- phases ---------------------------------------------------------------
  bool SetUp();
  bool Precompute();
  void QuiescedChecks();
  PhaseResult OpenLoop(double seconds, uint64_t schedule_seed, bool traced);
  double ClosedLoop(double seconds);
  void PersistenceRoundTrip(bool timed);
  void LayerProbes();

  // --- one request ----------------------------------------------------------
  void Issue(const Arrival& a, OpRecord* rec, std::atomic<size_t>* remaining,
             bool traced, uint64_t request);
  Outcome Classify(const Status& st, bool correct);
  void Count(Outcome o);

  // --- reporting ------------------------------------------------------------
  void Add(const std::string& name, double value, const char* unit);
  uint64_t failed() const {
    return wrong_.load() + shed_.load() + expired_.load() + errored_.load();
  }

  const Workload& w_;
  const Args args_;
  const Corpus corpus_;
  ThreadPool pool_;
  SpanLog spans_;
  SpanLog* const trace_log_;  ///< &spans_ in a traced run, else nullptr
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<WorkerSketchers> sketchers_;
  std::unique_ptr<FrontDoor> door_;

  std::vector<std::vector<QueryHit>> expected_topk_;  // serving policy
  /// Exact top-k of the recall sample: entry i is query i·kRecallStride.
  std::vector<std::vector<QueryHit>> exact_topk_;
  std::vector<double> expected_estimate_;

  // Trace-mode quarter probes: (x, ns) points.
  std::vector<double> insert_x_, insert_ns_, scan_x_, scan_ns_;
  double batch_size_mean_ = 1.0;

  std::atomic<uint64_t> attempted_{0}, wrong_{0}, shed_{0}, expired_{0},
      errored_{0};

  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
};

void Run::Add(const std::string& name, double value, const char* unit) {
  IPS_CHECK(ValidMetricName(name));
  IPS_CHECK(ValidUnit(unit));
  metrics_.push_back({name, value, unit});
}

Outcome Run::Classify(const Status& st, bool correct) {
  if (st.ok()) return correct ? Outcome::kOk : Outcome::kWrong;
  if (st.code() == StatusCode::kUnavailable) return Outcome::kShed;
  if (st.code() == StatusCode::kDeadlineExceeded) return Outcome::kExpired;
  return Outcome::kError;
}

void Run::Count(Outcome o) {
  switch (o) {
    case Outcome::kWrong: wrong_.fetch_add(1); break;
    case Outcome::kShed: shed_.fetch_add(1); break;
    case Outcome::kExpired: expired_.fetch_add(1); break;
    case Outcome::kError: errored_.fetch_add(1); break;
    default: break;
  }
}

// --- set-up -------------------------------------------------------------------

bool Run::SetUp() {
  CatalogOptions options = w_.catalog;
  options.seed = args_.seed;
  const bool probe = args_.trace == 1;
  // Trace mode loads in quarters and, between them, times store inserts
  // and exact scans against the growing catalog (excluded from set-up).
  Catalog::ChunkHook hook;
  if (probe) {
    hook = [this](Catalog& c, size_t loaded) {
      auto sketcher = c.MakeSketcher();
      std::vector<double> insert_ns;
      for (size_t i = 0; i < 32; ++i) {
        const uint64_t id = (i * 7919) % loaded;
        auto sketch = c.NewSketch();
        IPS_CHECK(sketcher->Sketch(corpus_.catalog[id].second, sketch.get())
                      .ok());
        ScopedSpan span(&spans_, "store.insert_probe", 0, 0);
        const uint64_t t0 = NowNs();
        IPS_CHECK(c.Insert(id, std::move(sketch)).ok());
        insert_ns.push_back(static_cast<double>(NowNs() - t0));
      }
      insert_x_.push_back(static_cast<double>(loaded) /
                          static_cast<double>(c.num_shards()));
      insert_ns_.push_back(Median(insert_ns));

      const QueryEngine exact = c.ExactEngine(nullptr);
      std::vector<double> scan_ns;
      for (size_t q = 0; q < 8; ++q) {
        auto sketch = c.NewSketch();
        IPS_CHECK(sketcher->Sketch(corpus_.queries[q], sketch.get()).ok());
        ScopedSpan span(&spans_, "engine.scan_probe", 0, 0);
        const uint64_t t0 = NowNs();
        IPS_CHECK(exact.TopKSketch(*sketch, kTopK).ok());
        scan_ns.push_back(static_cast<double>(NowNs() - t0));
      }
      scan_x_.push_back(static_cast<double>(loaded));
      scan_ns_.push_back(Median(scan_ns));
    };
  }

  const size_t repeats = probe ? 1 : w_.setup_repeats;
  std::vector<double> setup_s, rss_mb;
  for (size_t r = 0; r < repeats; ++r) {
    catalog_.reset();
    malloc_trim(0);  // so each build starts from the same resident set
    const double rss_before = RssMb();
    double seconds = 0.0;
    auto built = Catalog::Build(options, corpus_.catalog, &pool_,
                                probe ? 4 : 1, hook, &seconds);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return false;
    }
    catalog_ = std::move(built).value();
    setup_s.push_back(seconds);
    malloc_trim(0);  // count what the catalog holds, not freed scratch
    rss_mb.push_back(RssMb() - rss_before);
  }
  std::printf("set-up: %zu builds of %zu vectors, median %.3f s\n", repeats,
              catalog_->size(), Median(setup_s));
  if (!probe) {
    Add("setup_s", Median(setup_s), "s");
    Add("catalog_rss_mb", Median(rss_mb), "MB");
  }
  sketchers_ = std::make_unique<WorkerSketchers>(catalog_.get());
  FrontDoorOptions door_options;
  door_options.max_queue_depth = kQueueDepth;
  door_ = catalog_->OpenFrontDoor(&pool_, door_options);
  return true;
}

// --- expected answers ------------------------------------------------------------

bool Run::Precompute() {
  const QueryEngine serving = catalog_->ServingEngine(&pool_);
  expected_topk_.clear();
  for (const SparseVector& q : corpus_.queries) {
    auto r = serving.TopK(q, kTopK);
    if (!r.ok()) return false;
    expected_topk_.push_back(std::move(r).value());
  }
  const QueryEngine exact = catalog_->ExactEngine(&pool_);
  exact_topk_.clear();
  for (size_t q = 0; q < corpus_.queries.size(); q += kRecallStride) {
    auto r = exact.TopK(corpus_.queries[q], kTopK);
    if (!r.ok()) return false;
    exact_topk_.push_back(std::move(r).value());
  }
  const QueryEngine serial = catalog_->ServingEngine(nullptr);
  expected_estimate_.clear();
  for (const auto& [a, b] : corpus_.estimate_pairs) {
    auto r = serial.EstimateInnerProduct(a, b);
    if (!r.ok()) return false;
    expected_estimate_.push_back(r.value());
  }
  return true;
}

/// Norms of q and v, of each restricted to their common support, and ⟨q, v⟩.
struct PairStats {
  double ip = 0, q_norm = 0, v_norm = 0, q_common = 0, v_common = 0;
};

PairStats Compare(const SparseVector& q, const SparseVector& v) {
  PairStats s;
  const auto& a = q.entries();
  const auto& b = v.entries();
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].index < b[j].index) {
      ++i;
    } else if (b[j].index < a[i].index) {
      ++j;
    } else {
      s.ip += a[i].value * b[j].value;
      s.q_common += a[i].value * a[i].value;
      s.v_common += b[j].value * b[j].value;
      ++i;
      ++j;
    }
  }
  s.q_norm = q.Norm();
  s.v_norm = v.Norm();
  s.q_common = std::sqrt(s.q_common);
  s.v_common = std::sqrt(s.v_common);
  return s;
}

void Run::QuiescedChecks() {
  // Served answers on the recall sample, through the front door, in
  // chunks well under its queue depth.
  const size_t sample = exact_topk_.size();
  std::vector<ipsketch::FrontDoorFuture<std::vector<QueryHit>>> futures;
  double recall_sum = 0.0, err_sum = 0.0;
  size_t err_n = 0;
  for (size_t i = 0; i < sample; ++i) {
    if (i % 64 == 0) {
      futures.clear();
      for (size_t j = i; j < std::min(sample, i + 64); ++j) {
        futures.push_back(
            door_->SubmitTopK(corpus_.queries[j * kRecallStride], kTopK));
      }
    }
    const size_t q = i * kRecallStride;
    attempted_.fetch_add(1);
    auto r = futures[i % 64].Take();
    const Outcome o =
        Classify(r.status(), r.ok() && SameHits(r.value(), expected_topk_[q]));
    Count(o);
    if (o != Outcome::kOk) continue;
    std::unordered_set<uint64_t> exact_ids;
    for (const QueryHit& h : exact_topk_[i]) exact_ids.insert(h.id);
    size_t found = 0;
    for (const QueryHit& h : r.value()) found += exact_ids.count(h.id);
    recall_sum += exact_ids.empty() ? 1.0
                                    : static_cast<double>(found) /
                                          static_cast<double>(exact_ids.size());
  }
  const double recall = recall_sum / static_cast<double>(sample);
  // The estimator error needs no exact scan, so it covers every query's
  // served top-k: the answers the front door must return, bit for bit.
  for (size_t q = 0; q < corpus_.queries.size(); ++q) {
    for (const QueryHit& h : expected_topk_[q]) {
      const PairStats s =
          Compare(corpus_.queries[q], corpus_.catalog[h.id].second);
      const double scale =
          std::max(s.q_common * s.v_norm, s.q_norm * s.v_common);
      if (scale > 0.0) {
        err_sum += std::fabs(h.estimate - s.ip) / scale;
        ++err_n;
      }
    }
  }
  const double err = err_n == 0 ? 0.0 : err_sum / static_cast<double>(err_n);
  std::printf("quiesced: recall@10 %.4f over %zu queries, est_err_norm "
              "%.5f over %zu hits\n",
              recall, sample, err, err_n);
  if (args_.trace == 0) {
    Add("recall_at_10", recall, "ratio");
    Add("est_err_norm", err, "ratio");
  }

  // The exact path through a front door must equal the serial engine bit
  // for bit.
  const QueryEngine serial_exact = catalog_->ExactEngine(nullptr);
  auto exact_door =
      catalog_->OpenFrontDoor(&pool_, FrontDoorOptions{}, /*exact=*/true);
  const size_t n = std::min<size_t>(32, corpus_.queries.size());
  futures.clear();
  for (size_t q = 0; q < n; ++q) {
    futures.push_back(exact_door->SubmitTopK(corpus_.queries[q], kTopK));
  }
  size_t mismatches = 0;
  for (size_t q = 0; q < n; ++q) {
    attempted_.fetch_add(1);
    auto served = futures[q].Take();
    auto serial = serial_exact.TopK(corpus_.queries[q], kTopK);
    const Outcome o = Classify(
        served.status(),
        serial.ok() && served.ok() && SameHits(served.value(), serial.value()));
    Count(o);
    if (o == Outcome::kWrong) ++mismatches;
  }
  if (mismatches != 0) {
    std::fprintf(stderr, "exact front door differs from the serial engine "
                 "on %zu of %zu queries\n", mismatches, n);
  }
}

// --- open and closed loops ------------------------------------------------------

std::vector<Arrival> Schedule(const Workload& w, const Corpus& c,
                              double seconds, uint64_t seed) {
  ipsketch::Xoshiro256StarStar rng(seed);
  std::vector<Arrival> arrivals;
  double t = 0.0;
  for (;;) {
    t += -std::log(rng.NextPositiveUnit()) / w.rate_per_s;
    if (t >= seconds) break;
    Arrival a;
    a.offset_ns = static_cast<uint64_t>(t * 1e9);
    const double u = rng.NextUnit();
    size_t range = 0;
    if (u < w.topk_share) {
      a.kind = Kind::kTopK;
      range = c.queries.size();
    } else if (u < w.topk_share + w.estimate_share) {
      a.kind = Kind::kEstimate;
      range = c.estimate_pairs.size();
    } else {
      a.kind = Kind::kIngest;
      range = c.ingest_ids.size();
    }
    a.operand = static_cast<uint32_t>(rng.NextBounded(range));
    arrivals.push_back(a);
  }
  return arrivals;
}

void Run::Issue(const Arrival& a, OpRecord* rec,
                std::atomic<size_t>* remaining, bool traced,
                uint64_t request) {
  SpanLog* log = traced ? &spans_ : nullptr;
  const uint64_t span_id = traced ? spans_.NewId() : 0;
  // Completes `rec` and closes the request's root span.
  auto finish = [this, rec, remaining, log, span_id, request](Outcome o,
                                                              const char* name) {
    rec->done_ns = NowNs();
    rec->outcome = o;
    Count(o);
    if (log != nullptr) {
      log->Add({name, rec->scheduled_ns, rec->done_ns, span_id, 0, request});
    }
    remaining->fetch_sub(1, std::memory_order_release);
  };
  attempted_.fetch_add(1);
  rec->kind = a.kind;
  switch (a.kind) {
    case Kind::kTopK: {
      const uint32_t q = a.operand;
      ScopedSpan submit(log, "frontdoor.submit_topk", span_id, request);
      door_->SubmitTopK(
          corpus_.queries[q], kTopK, [this, q, finish](FrontDoor::TopKResult r) {
            finish(Classify(r.status(),
                            r.ok() && SameHits(r.value(), expected_topk_[q])),
                   "request.topk");
          });
      break;
    }
    case Kind::kEstimate: {
      const uint32_t p = a.operand;
      const auto [id_a, id_b] = corpus_.estimate_pairs[p];
      ScopedSpan submit(log, "frontdoor.submit_estimate", span_id, request);
      door_->SubmitEstimate(
          id_a, id_b, [this, p, finish](FrontDoor::EstimateResult r) {
            finish(Classify(r.status(),
                            r.ok() && SameDouble(r.value(),
                                                 expected_estimate_[p])),
                   "request.estimate");
          });
      break;
    }
    case Kind::kIngest: {
      const uint64_t id = corpus_.ingest_ids[a.operand];
      auto task = [this, id, log, span_id, request, finish] {
        ipsketch::Sketcher* sketcher = sketchers_->ForThisThread();
        auto sketch = catalog_->NewSketch();
        Status st;
        {
          ScopedSpan s(log, "sketch.ingest", span_id, request);
          st = sketcher->Sketch(corpus_.catalog[id].second, sketch.get());
        }
        if (st.ok()) {
          ScopedSpan s(log, "store.insert", span_id, request);
          st = catalog_->Insert(id, std::move(sketch));
        }
        finish(Classify(st, true), "request.ingest");
      };
      if (!pool_.Submit(task)) task();
      break;
    }
  }
}

PhaseResult Run::OpenLoop(double seconds, uint64_t schedule_seed,
                          bool traced) {
  const std::vector<Arrival> arrivals =
      Schedule(w_, corpus_, seconds, schedule_seed);
  std::vector<OpRecord> records(arrivals.size());
  std::atomic<size_t> remaining{arrivals.size()};
  PhaseResult result;
  result.before = ReadExported();

  const uint64_t start_ns = NowNs();
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    // Spin rather than sleep: a sleeping generator wakes late whenever the
    // host is slow to reschedule an idle vCPU, and its lateness would be
    // charged to the service.
    OpRecord& rec = records[i];
    rec.scheduled_ns = start_ns + a.offset_ns;
    while ((rec.sent_ns = NowNs()) < rec.scheduled_ns) {
    }
    if (traced) {
      spans_.Add({"loadgen.send", rec.scheduled_ns, rec.sent_ns,
                  spans_.NewId(), 0, i + 1});
    }
    Issue(a, &rec, &remaining, traced, i + 1);
  }
  while (remaining.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  result.wall_s = static_cast<double>(NowNs() - start_ns) / 1e9;
  result.after = ReadExported();

  for (const OpRecord& rec : records) {
    result.lag_us.push_back(
        static_cast<double>(rec.sent_ns - rec.scheduled_ns) / 1e3);
    LatencySamples* s = rec.kind == Kind::kTopK       ? &result.topk
                        : rec.kind == Kind::kEstimate ? &result.estimate
                                                      : &result.ingest;
    if (rec.outcome == Outcome::kOk) {
      s->completed.push_back(MsSince(rec.scheduled_ns, rec.done_ns));
    } else {
      ++s->failed;
    }
  }
  return result;
}

double Run::ClosedLoop(double seconds) {
  struct State {
    std::atomic<uint64_t> next{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<size_t> outstanding{0};
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  } state;
  std::function<void()> submit = [&] {
    const size_t q = state.next.fetch_add(1) % corpus_.queries.size();
    state.outstanding.fetch_add(1);
    attempted_.fetch_add(1);
    door_->SubmitTopK(corpus_.queries[q], kTopK,
                      [&, q](FrontDoor::TopKResult r) {
                        const Outcome o = Classify(
                            r.status(),
                            r.ok() && SameHits(r.value(), expected_topk_[q]));
                        Count(o);
                        if (NowNs() < state.end_ns) {
                          if (o == Outcome::kOk) state.completed.fetch_add(1);
                          submit();
                        }
                        state.outstanding.fetch_sub(1);
                      });
  };
  state.start_ns = NowNs();
  state.end_ns = state.start_ns + static_cast<uint64_t>(seconds * 1e9);
  for (size_t i = 0; i < kClosedOutstanding; ++i) submit();
  while (NowNs() < state.end_ns || state.outstanding.load() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return static_cast<double>(state.completed.load()) / seconds;
}

// --- persistence ------------------------------------------------------------------

void Run::PersistenceRoundTrip(bool timed) {
  const std::string dir =
      args_.out_dir + "/persist-" + std::to_string(::getpid());
  const std::string path = dir + "/catalog.store";
  ::mkdir(dir.c_str(), 0755);
  bool ok = false;
  double save_ms = 0.0, load_ms = 0.0, bytes = 0.0;
  {
    // The save and load count as one operation; if either fails the run
    // fails.
    attempted_.fetch_add(1);
    uint64_t t0 = NowNs();
    Status saved;
    {
      ScopedSpan span(trace_log_, "persistence.save", 0, 0);
      saved = catalog_->Save(path);
    }
    save_ms = MsSince(t0, NowNs());
    struct stat st {};
    if (saved.ok() && ::stat(path.c_str(), &st) == 0) {
      bytes = static_cast<double>(st.st_size);
    }
    t0 = NowNs();
    // A failed save is reported as the load's error.
    Result<std::unique_ptr<ipsketch::SketchStore>> loaded =
        saved.ok() ? Status::Internal("not loaded") : saved;
    if (saved.ok()) {
      ScopedSpan span(trace_log_, "persistence.load", 0, 0);
      loaded = catalog_->Load(path);
    }
    load_ms = MsSince(t0, NowNs());
    if (loaded.ok()) {
      // The reloaded catalog must answer exactly like the live one.
      QueryEngine reloaded(loaded.value().get(), &pool_);
      const QueryEngine live = catalog_->ExactEngine(&pool_);
      ok = true;
      for (size_t q = 0; q < 16 && q < corpus_.queries.size(); ++q) {
        attempted_.fetch_add(1);
        auto a = reloaded.TopK(corpus_.queries[q], kTopK);
        auto b = live.TopK(corpus_.queries[q], kTopK);
        const bool same = a.ok() && b.ok() && SameHits(a.value(), b.value());
        if (!same) {
          wrong_.fetch_add(1);
          ok = false;
        }
      }
    } else {
      std::fprintf(stderr, "save/load failed: %s\n",
                   loaded.status().ToString().c_str());
      errored_.fetch_add(1);
    }
  }
  std::remove(path.c_str());
  ::rmdir(dir.c_str());
  std::printf("persistence: save %.1f ms, load %.1f ms, %.0f bytes, "
              "round trip %s\n",
              save_ms, load_ms, bytes, ok ? "identical" : "DIFFERS");
  if (timed) {
    Add("persistence.save_ms", save_ms, "ms");
    Add("persistence.load_ms", load_ms, "ms");
    Add("persistence.bytes_per_sketch",
        bytes / static_cast<double>(catalog_->size()), "B");
  }
}

// --- serial layer probes (trace mode) ------------------------------------------------

void Run::LayerProbes() {
  constexpr uint64_t kProbeRequest = uint64_t{1} << 40;
  const QueryEngine serving = catalog_->ServingEngine(nullptr);
  const QueryEngine exact = catalog_->ExactEngine(nullptr);
  auto sketcher = catalog_->MakeSketcher();
  const size_t shards = catalog_->num_shards();
  const size_t sample = std::min<size_t>(catalog_->banded() ? 128 : 48,
                                         exact_topk_.size());

  // Per query: the engine's own serial TopK (its QueryTrace stages become
  // child spans), and the same query one layer call at a time. The two
  // alternate which runs first, so neither always finds the query's slabs
  // in cache.
  std::vector<uint64_t> engine_ids, layer_ids;
  double candidates = 0, buckets = 0, useful_found = 0;
  for (size_t i = 0; i < sample; ++i) {
    const size_t q = i * kRecallStride;  // exact_topk_[i] is query q
    const uint64_t request = kProbeRequest + q;
    const SparseVector& vec = corpus_.queries[q];
    ScopedSpan root(&spans_, "probe.request", 0, request);
    std::vector<QueryHit> engine_hits, layer_hits;
    auto sketch = catalog_->NewSketch();
    const auto engine_call = [&] {
      ipsketch::metrics::QueryTrace trace;
      ScopedSpan call(&spans_, "engine.topk", root.id(), request);
      engine_ids.push_back(call.id());
      auto r = serving.TopK(vec, kTopK, &trace);
      if (r.ok()) engine_hits = std::move(r).value();
      for (size_t i = 0; i < trace.size(); ++i) {
        const auto& s = trace.span(i);
        spans_.Add({StageSpanName(s.stage), s.start_ns,
                    s.start_ns + s.duration_ns, spans_.NewId(), call.id(),
                    request});
      }
    };
    const auto layer_calls = [&] {
      ScopedSpan layers(&spans_, "probe.layers", root.id(), request);
      layer_ids.push_back(layers.id());
      {
        ScopedSpan s(&spans_, "sketch.query", layers.id(), request);
        IPS_CHECK(sketcher->Sketch(vec, sketch.get()).ok());
      }
      if (!catalog_->banded()) {
        ScopedSpan s(&spans_, "engine.topk_sketch", layers.id(), request);
        auto r = exact.TopKSketch(*sketch, kTopK);
        if (r.ok()) layer_hits = std::move(r).value();
        return;
      }
      std::vector<uint64_t> keys;
      {
        ScopedSpan s(&spans_, "index.band_keys", layers.id(), request);
        IPS_CHECK(catalog_->BandKeys(*sketch, &keys).ok());
      }
      std::vector<ipsketch::TopKHeap> heaps(shards, ipsketch::TopKHeap(kTopK));
      for (size_t sh = 0; sh < shards; ++sh) {
        ipsketch::IndexProbeStats stats;
        {
          ScopedSpan s(&spans_, "index.probe_shard", layers.id(), request);
          IPS_CHECK(
              catalog_->ProbeShard(*sketch, keys, sh, &heaps[sh], &stats).ok());
        }
        candidates += static_cast<double>(stats.candidates);
        buckets += static_cast<double>(stats.buckets_probed);
      }
      ScopedSpan s(&spans_, "engine.heap_merge", layers.id(), request);
      ipsketch::TopKHeap merged(kTopK);
      for (const auto& h : heaps) merged.Merge(h);
      for (const auto& hit : merged.TakeSorted()) {
        layer_hits.push_back({static_cast<uint64_t>(hit.index), hit.estimate});
      }
    };
    if (i % 2 == 0) {
      engine_call();
      layer_calls();
    } else {
      layer_calls();
      engine_call();
    }
    attempted_.fetch_add(1);
    if (!SameHits(engine_hits, expected_topk_[q]) ||
        !SameHits(layer_hits, expected_topk_[q])) {
      wrong_.fetch_add(1);
    }
    if (catalog_->banded()) {
      // Every candidate the probe re-ranks: how many are exact top-10 ids.
      ScopedSpan s(&spans_, "index.candidate_list", root.id(), request);
      std::vector<uint64_t> keys;
      IPS_CHECK(catalog_->BandKeys(*sketch, &keys).ok());
      ipsketch::TopKHeap all(catalog_->size());
      for (size_t sh = 0; sh < shards; ++sh) {
        ipsketch::IndexProbeStats stats;
        IPS_CHECK(catalog_->ProbeShard(*sketch, keys, sh, &all, &stats).ok());
      }
      std::unordered_set<uint64_t> ids;
      for (const auto& hit : all.TakeSorted()) ids.insert(hit.index);
      for (const QueryHit& h : exact_topk_[i]) useful_found += ids.count(h.id);
    }
  }

  // Batch entry point at batch size 1 and at the observed mean batch size.
  std::vector<std::unique_ptr<AnySketch>> query_sketches;
  for (size_t q = 0; q < 64 && q < corpus_.queries.size(); ++q) {
    query_sketches.push_back(catalog_->NewSketch());
    IPS_CHECK(sketcher->Sketch(corpus_.queries[q], query_sketches.back().get())
                  .ok());
  }
  auto batch_us = [&](size_t b, const char* name) {
    std::vector<double> per_query;
    for (size_t start = 0; start + b <= query_sketches.size(); start += b) {
      std::vector<const AnySketch*> batch;
      for (size_t i = start; i < start + b; ++i) {
        batch.push_back(query_sketches[i].get());
      }
      ScopedSpan s(&spans_, name, 0, 0);
      const uint64_t t0 = NowNs();
      auto results = serving.TopKSketchBatch(batch, std::vector<size_t>(b, kTopK));
      per_query.push_back(static_cast<double>(NowNs() - t0) / 1e3 /
                          static_cast<double>(b));
      for (size_t i = 0; i < b; ++i) {
        attempted_.fetch_add(1);
        if (!results[i].ok() ||
            !SameHits(results[i].value(), expected_topk_[start + i])) {
          wrong_.fetch_add(1);
        }
      }
    }
    return Median(per_query);
  };
  const size_t bn = std::clamp<size_t>(
      static_cast<size_t>(std::llround(batch_size_mean_)), 1,
      query_sketches.size() / 2);
  const double b1_us = batch_us(1, "engine.batch_b1");
  const double bn_us = batch_us(bn, "engine.batch_bN");

  // Sketch cost against nnz (a spread of catalog or heavy-tailed vectors)
  // and against m (families at 64, 128, 256 samples on the same vectors).
  std::vector<uint64_t> nnz_ids = corpus_.ingest_ids;
  if (nnz_ids.size() > 256) nnz_ids.resize(256);
  std::vector<double> nnz_x, nnz_ns;
  for (uint64_t id : nnz_ids) {
    const SparseVector& v = corpus_.catalog[id].second;
    auto sketch = catalog_->NewSketch();
    std::vector<double> reps;
    for (int r = 0; r < 3; ++r) {
      ScopedSpan s(&spans_, "sketch.nnz_probe", 0, 0);
      const uint64_t t0 = NowNs();
      IPS_CHECK(sketcher->Sketch(v, sketch.get()).ok());
      reps.push_back(static_cast<double>(NowNs() - t0));
    }
    nnz_x.push_back(static_cast<double>(v.nnz()));
    nnz_ns.push_back(Median(reps));
  }
  std::vector<double> m_x, m_ns;
  for (size_t m : {64, 128, 256}) {
    std::shared_ptr<const ipsketch::SketchFamily> family;
    CatalogOptions options = w_.catalog;
    options.seed = args_.seed;
    auto at_m = Catalog::MakeSketcherAt(options, m, &family);
    auto sketch = family->NewSketch();
    std::vector<double> per_vector;
    for (size_t i = 0; i < 64 && i < nnz_ids.size(); ++i) {
      ScopedSpan s(&spans_, "sketch.m_probe", 0, 0);
      const uint64_t t0 = NowNs();
      IPS_CHECK(at_m->Sketch(corpus_.catalog[nnz_ids[i]].second, sketch.get())
                    .ok());
      per_vector.push_back(static_cast<double>(NowNs() - t0));
    }
    m_x.push_back(static_cast<double>(m));
    m_ns.push_back(Median(per_vector));
  }

  // Estimator kernel over stored pairs.
  std::vector<std::pair<std::unique_ptr<AnySketch>, std::unique_ptr<AnySketch>>>
      pairs;
  for (size_t i = 0; i < 512 && i < corpus_.estimate_pairs.size(); ++i) {
    const auto [a, b] = corpus_.estimate_pairs[(i * 7) %
                                               corpus_.estimate_pairs.size()];
    pairs.push_back({catalog_->Lookup(a).value(), catalog_->Lookup(b).value()});
  }
  std::vector<double> pair_ns;
  double sink = 0.0;
  for (int rep = 0; rep < 20; ++rep) {
    ScopedSpan s(&spans_, "estimate.pairs", 0, 0);
    const uint64_t t0 = NowNs();
    for (const auto& [a, b] : pairs) sink += catalog_->Estimate(*a, *b).value();
    pair_ns.push_back(static_cast<double>(NowNs() - t0) /
                      static_cast<double>(pairs.size()));
  }
  if (sink == 0.12345) std::printf(" ");  // keeps the loop observable

  // Store insert of a pre-built sketch on the live catalog (publication
  // plus, when attached, the index mirror).
  std::vector<double> insert_us;
  for (size_t i = 0; i < 256 && i < corpus_.ingest_ids.size(); ++i) {
    const uint64_t id = corpus_.ingest_ids[i];
    auto sketch = catalog_->NewSketch();
    IPS_CHECK(sketcher->Sketch(corpus_.catalog[id].second, sketch.get()).ok());
    ScopedSpan s(&spans_, "store.insert", 0, 0);
    const uint64_t t0 = NowNs();
    IPS_CHECK(catalog_->Insert(id, std::move(sketch)).ok());
    insert_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }

  // Per-layer numbers from the probe spans.
  const std::vector<Span> all = spans_.spans();
  const auto self = SelfTimes(all);
  std::map<std::string, std::vector<double>> us_by_name;
  std::unordered_map<uint64_t, double> probe_sum_us, layers_us;
  std::unordered_set<uint64_t> layer_set(layer_ids.begin(), layer_ids.end());
  double engine_total = 0.0, layers_total = 0.0;
  std::unordered_set<uint64_t> engine_set(engine_ids.begin(), engine_ids.end());
  for (const Span& s : all) {
    if (s.request < kProbeRequest) continue;
    const double us = static_cast<double>(s.duration_ns()) / 1e3;
    if (engine_set.count(s.id)) engine_total += us;
    if (layer_set.count(s.parent)) {
      layers_total += static_cast<double>(self.at(s.id)) / 1e3;
    }
    if (std::strcmp(s.name, "index.probe_shard") == 0) {
      probe_sum_us[s.request] += us;
    } else {
      us_by_name[s.name].push_back(
          std::strcmp(s.name, "sketch.query") == 0
              ? static_cast<double>(self.at(s.id)) / 1e3
              : us);
    }
  }
  std::vector<double> probe_us;
  for (const auto& [request, us] : probe_sum_us) probe_us.push_back(us);
  const double n = static_cast<double>(sample);

  std::vector<double> ingest_sketch_us;
  for (const Span& s : all) {
    if (std::strcmp(s.name, "sketch.ingest") == 0) {
      ingest_sketch_us.push_back(static_cast<double>(s.duration_ns()) / 1e3);
    }
  }

  auto slope = [](const std::vector<double>& x, const std::vector<double>& y) {
    const auto fit = FitLine(x, y);
    return fit.has_value() ? fit->slope : 0.0;
  };
  const double words = catalog_->ResidentWordsPerSketch();
  Add("sketch.query_us", Median(us_by_name["sketch.query"]), "us");
  Add("sketch.ingest_us", Median(ingest_sketch_us), "us");
  Add("sketch.ns_per_nnz", slope(nnz_x, nnz_ns), "ns/nnz");
  Add("sketch.ns_per_sample", slope(m_x, m_ns), "ns/sample");
  Add("estimate.pair_ns", Median(pair_ns), "ns");
  Add("estimate.bytes_per_pair", 2.0 * 8.0 * words, "B");
  Add("store.insert_us", Median(insert_us), "us");
  Add("store.insert_ns_per_resident", slope(insert_x_, insert_ns_),
      "ns/resident");
  Add("store.resident_words_per_sketch", words, "words");
  Add("index.band_keys_us", Median(us_by_name["index.band_keys"]), "us");
  Add("index.probe_us", Median(probe_us), "us");
  Add("index.candidates_per_query", candidates / n, "count");
  Add("index.buckets_probed_per_query", buckets / n, "count");
  Add("index.useful_frac", candidates > 0 ? useful_found / candidates : 0.0,
      "ratio");
  Add("engine.topk_us", Median(us_by_name["engine.topk"]), "us");
  for (const char* stage : kStageMetrics) {
    Add(std::string("engine.span.") + stage + "_us",
        Median(us_by_name[StageSpanName(stage)]), "us");
  }
  Add("engine.scan_ns_per_sketch",
      scan_ns_.empty() ? 0.0
                       : scan_ns_.back() / static_cast<double>(catalog_->size()),
      "ns/sketch");
  Add("engine.scan_slope_ns_per_sketch", slope(scan_x_, scan_ns_),
      "ns/sketch");
  Add("engine.batch_us_per_query_b1", b1_us, "us");
  Add("engine.batch_us_per_query_bN", bn_us, "us");
  Add("trace.unexplained_frac",
      engine_total > 0 ? (engine_total - layers_total) / engine_total : 0.0,
      "ratio");
  std::printf("layer probe: %zu queries, engine %.1f us/query, layers "
              "%.1f us/query, batch sizes 1 and %zu\n",
              sample, engine_total / n, layers_total / n, bn);
}

// --- main ----------------------------------------------------------------------------

int Run::Main() {
  const bool traced_run = args_.trace == 1;
  if (!SetUp() || !Precompute()) return 2;
  QuiescedChecks();

  // Warm-up at the workload's rate: caches fill, lazy state settles.
  OpenLoop(kWarmupSeconds, ipsketch::MixCombine(args_.seed, 0x3A), false);

  const double seconds = args_.seconds;
  PhaseResult open;
  double max_qps = 0.0;
  double traced_p50 = 0.0;
  if (!traced_run) {
    // The closed loop's rate is the gated figure, so it gets most of the
    // time.
    open = OpenLoop(0.4 * seconds, ipsketch::MixCombine(args_.seed, 0x3B),
                    false);
    max_qps = ClosedLoop(0.6 * seconds);
  } else {
    open = OpenLoop(0.5 * seconds, ipsketch::MixCombine(args_.seed, 0x3B),
                    false);
    PhaseResult traced = OpenLoop(
        0.5 * seconds, ipsketch::MixCombine(args_.seed, 0x3C), true);
    traced_p50 = Percentile(traced.topk, 50).value_or(0.0);
  }

  // Validity: the generator kept to its schedule, and every open-loop
  // percentile has at least ten samples beyond it.
  LatencySamples lag;
  lag.completed = open.lag_us;
  const double lag_p99 = Percentile(lag, 99).value_or(0.0);
  // Plain percentiles over the whole open-loop phase. On shared hosts
  // their run-to-run spread follows the host's vCPU wake-up latency, so
  // they are per-layer (traced-run) metrics, not gated end-to-end ones;
  // untraced runs print them.
  struct Pct {
    const char* name;
    const LatencySamples* samples;
    double q;
  };
  const Pct percentiles[] = {{"topk_p50_ms", &open.topk, 50},
                             {"topk_p99_ms", &open.topk, 99},
                             {"estimate_p50_ms", &open.estimate, 50},
                             {"ingest_p50_ms", &open.ingest, 50},
                             {"ingest_p99_ms", &open.ingest, 99}};
  bool valid = lag_p99 <= kMaxLagP99Us;
  std::printf("open loop: %.2f s at %.0f/s offered, generator lag p99 "
              "%.1f us\n",
              open.wall_s, w_.rate_per_s, lag_p99);
  // A percentile that lands on a failed request is unbounded; it is
  // charged the phase's whole wall time (and the failure fails the run).
  const double unbounded_ms = open.wall_s * 1e3;
  for (const Pct& p : percentiles) {
    const size_t n = p.samples->count();
    const double value = Percentile(*p.samples, p.q).value_or(unbounded_ms);
    std::printf("  openloop.%-16s %.4f ms: n=%zu (beyond %zu)\n", p.name,
                value, n, SamplesBeyond(n, p.q));
    if (!PercentileSupported(n, p.q)) valid = false;
    if (traced_run) Add(std::string("openloop.") + p.name, value, "ms");
  }

  if (!traced_run) {
    Add("topk_max_qps", max_qps, "1/s");
  } else {
    const double untraced_p50 = Percentile(open.topk, 50).value_or(0.0);
    const HistogramSnapshot wait =
        Delta(open.after.queue_wait, open.before.queue_wait);
    const HistogramSnapshot batch =
        Delta(open.after.batch_size, open.before.batch_size);
    const HistogramSnapshot pool_wait =
        Delta(open.after.pool_wait, open.before.pool_wait);
    const HistogramSnapshot pool_run =
        Delta(open.after.pool_run, open.before.pool_run);
    batch_size_mean_ = batch.Mean();
    Add("frontdoor.queue_wait_p50_us", wait.Percentile(50) / 1e3, "us");
    Add("frontdoor.queue_wait_p99_us", wait.Percentile(99) / 1e3, "us");
    Add("frontdoor.batch_size_mean", batch_size_mean_, "count");
    Add("pool.task_wait_p99_us", pool_wait.Percentile(99) / 1e3, "us");
    Add("pool.busy_frac",
        static_cast<double>(pool_run.sum) /
            (open.wall_s * 1e9 * static_cast<double>(kPoolThreads)),
        "ratio");
    Add("loadgen.lag_p99_us", lag_p99, "us");
    Add("trace.overhead_frac",
        untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0, "ratio");
    LayerProbes();
  }

  // ingest_heavy ends with a save→load round trip. Other workloads do not
  // exercise persistence; a traced run reports it as 0 there (per-layer
  // metrics are listed on every workload).
  if (w_.corpus.heavy_vectors > 0) {
    PersistenceRoundTrip(traced_run);
  } else if (traced_run) {
    Add("persistence.save_ms", 0.0, "ms");
    Add("persistence.load_ms", 0.0, "ms");
    Add("persistence.bytes_per_sketch", 0.0, "B");
  }

  const uint64_t attempted = attempted_.load();
  const uint64_t failed = this->failed();
  if (traced_run &&
      !spans_.WriteJsonLines(args_.out_dir + "/trace-" + w_.name + "-" +
                             std::to_string(args_.seed) + ".jsonl")) {
    std::fprintf(stderr, "could not write the span file\n");
  }
  std::printf("operations: %llu attempted, %llu wrong, %llu shed, %llu "
              "expired, %llu errored\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(wrong_.load()),
              static_cast<unsigned long long>(shed_.load()),
              static_cast<unsigned long long>(expired_.load()),
              static_cast<unsigned long long>(errored_.load()));
  for (const Metric& m : metrics_) {
    if (!std::isfinite(m.value)) valid = false;
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (!valid) {
    std::fprintf(stderr, "run invalid: the generator fell behind or a "
                 "percentile lacks ten samples beyond it\n");
    return 3;
  }

  // Every operation must succeed with the right answer: a shed, expired,
  // errored or wrong one (or a failed save/load) fails the run.
  const bool correct = failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics_[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servicebench

int main(int argc, char** argv) {
  using namespace servicebench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: service_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const uint64_t t0 = NowNs();
  auto corpus = MakeCorpus(workload->corpus, args.seed);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 corpus.status().ToString().c_str());
    return 2;
  }
  std::printf("workload %s, seed %llu: %zu catalog vectors, %zu queries "
              "(generated in %.2f s)\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              corpus.value().catalog.size(), corpus.value().queries.size(),
              static_cast<double>(NowNs() - t0) / 1e9);
  Run run(*workload, args, std::move(corpus).value());
  return run.Main();
}
