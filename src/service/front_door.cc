#include "service/front_door.h"

#include <algorithm>
#include <limits>
#include <string>

#include "index/banded_index.h"
#include "sketch/family.h"

namespace ipsketch {

struct FrontDoor::Request {
  enum class Kind { kEstimate, kTopK };

  Kind kind = Kind::kEstimate;
  // kEstimate
  uint64_t id_a = 0;
  uint64_t id_b = 0;
  EstimateCallback est_done;
  // kTopK: the raw query, sketched inside the batch.
  SparseVector query;
  size_t k = 0;
  TopKCallback topk_done;

  /// Absolute steady-clock expiry (metrics::NowNs base); 0 = none, and
  /// UINT64_MAX (a saturated budget) never passes.
  uint64_t deadline_ns = 0;
  uint64_t enqueue_ns = 0;

  void CompleteError(Status st) {
    if (kind == Kind::kEstimate) {
      est_done(EstimateResult(std::move(st)));
    } else {
      topk_done(TopKResult(std::move(st)));
    }
  }
};

FrontDoor::FrontDoor(const SketchStore* store, ThreadPool* pool,
                     const FrontDoorOptions& options, const BandedIndex* index,
                     IndexPolicy policy)
    : store_(store),
      pool_(pool),
      options_(options),
      max_concurrent_batches_(pool != nullptr ? pool->num_threads() : 1),
      engine_(store, /*pool=*/nullptr, index, policy) {
  IPS_CHECK(store_ != nullptr);
  IPS_CHECK(options_.max_queue_depth > 0);
  auto& registry = metrics::MetricsRegistry::Global();
  submitted_ = &registry.GetCounter("ipsketch_frontdoor_submitted_total",
                                    "Requests submitted to the front door");
  completed_ = &registry.GetCounter(
      "ipsketch_frontdoor_completed_total",
      "Requests that executed to completion (answer or engine error)");
  shed_ = &registry.GetCounter(
      "ipsketch_frontdoor_shed_total",
      "Requests rejected with Unavailable (queue full or shutdown)");
  expired_ = &registry.GetCounter(
      "ipsketch_frontdoor_deadline_expired_total",
      "Requests whose deadline passed while queued (DeadlineExceeded)");
  queue_depth_ = &registry.GetGauge("ipsketch_frontdoor_queue_depth",
                                    "Requests waiting in the admission queue");
  queue_wait_ns_ = &registry.GetHistogram(
      "ipsketch_frontdoor_queue_wait_ns",
      "Time from submit to batch pickup (admission-queue delay)");
  batch_size_ = &registry.GetHistogram(
      "ipsketch_frontdoor_batch_size",
      "Requests coalesced per dispatched batch");
  latency_ns_ = &registry.GetHistogram(
      "ipsketch_frontdoor_latency_ns",
      "Submit-to-completion latency of executed requests");
}

FrontDoor::~FrontDoor() {
  std::deque<std::unique_ptr<Request>> orphaned;
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
    orphaned.swap(queue_);
    queue_depth_->Set(0);
  }
  // Completion runs outside the queue lock so user callbacks may not
  // re-enter the (same-ranked) front door.
  for (auto& req : orphaned) {
    shed_->Add(1);
    req->CompleteError(
        Status::Unavailable("front door shutting down; request not served"));
  }
  MutexLock lock(&mu_);
  while (active_batches_ > 0) drained_cv_.Wait(mu_);
}

void FrontDoor::Enqueue(std::unique_ptr<Request> req) {
  submitted_->Add(1);
  req->enqueue_ns = metrics::NowNs();
  if (req->deadline_ns != 0) {
    // Saturate: a wrapped sum would expire a huge budget at once.
    const uint64_t headroom =
        std::numeric_limits<uint64_t>::max() - req->enqueue_ns;
    req->deadline_ns = std::min(req->deadline_ns, headroom) + req->enqueue_ns;
  }

  std::unique_ptr<Request> shed;
  const char* shed_reason = nullptr;
  bool spawn = false;
  {
    MutexLock lock(&mu_);
    if (shutting_down_) {
      shed = std::move(req);
      shed_reason = "front door shutting down";
    } else if (queue_.size() >= options_.max_queue_depth) {
      shed = std::move(req);
      shed_reason = "admission queue full";
    } else {
      queue_.push_back(std::move(req));
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
      if (active_batches_ < max_concurrent_batches_) {
        ++active_batches_;
        spawn = true;
      }
    }
  }
  if (shed != nullptr) {
    shed_->Add(1);
    shed->CompleteError(Status::Unavailable(
        std::string(shed_reason) + "; retry later or raise max_queue_depth"));
    return;
  }
  if (spawn) {
    // Pool gone or stopping: dispatch inline on the submitter — degenerate
    // but every request still completes.
    if (pool_ == nullptr || !pool_->Submit([this] { DispatchLoop(); })) {
      DispatchLoop();
    }
  }
}

void FrontDoor::DispatchLoop() {
  for (;;) {
    std::vector<std::unique_ptr<Request>> batch;
    {
      MutexLock lock(&mu_);
      if (shutting_down_ || queue_.empty()) {
        --active_batches_;
        if (active_batches_ == 0) drained_cv_.NotifyAll();
        return;
      }
      const size_t n = std::min(kMaxBatch, queue_.size());
      batch.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
    batch_size_->Record(batch.size());
    ExecuteBatch(std::move(batch));
  }
}

void FrontDoor::ExecuteBatch(std::vector<std::unique_ptr<Request>> batch) {
  const uint64_t picked_up_ns = metrics::NowNs();
  // Every executed request completes exactly once, counted and timed here.
  const auto executed = [this](Request* req) {
    completed_->Add(1);
    latency_ns_->Record(metrics::NowNs() - req->enqueue_ns);
  };
  // One pass over the batch. Expired requests complete with
  // DeadlineExceeded and estimates run directly (snapshot lookups). Top-k
  // queries are sketched with ONE Sketcher for the whole batch — the
  // scratch-reuse coalescing the per-caller synchronous path never gets —
  // and go through the engine's one-traversal batch API; a query that
  // cannot be sketched (or a family that cannot make a sketcher) completes
  // here with that status.
  std::optional<Result<std::unique_ptr<Sketcher>>> sketcher;
  std::vector<Request*> topks;
  std::vector<std::unique_ptr<AnySketch>> sketches;
  std::vector<const AnySketch*> topk_queries;
  std::vector<size_t> topk_ks;
  for (const std::unique_ptr<Request>& owned : batch) {
    Request* req = owned.get();
    queue_wait_ns_->Record(picked_up_ns - req->enqueue_ns);
    if (req->deadline_ns != 0 && picked_up_ns > req->deadline_ns) {
      expired_->Add(1);
      req->CompleteError(Status::DeadlineExceeded(
          "deadline passed while queued at the front door"));
      continue;
    }
    if (req->kind == Request::Kind::kEstimate) {
      EstimateResult result = engine_.EstimateInnerProduct(req->id_a,
                                                           req->id_b);
      executed(req);
      req->est_done(std::move(result));
      continue;
    }
    if (!sketcher.has_value()) {
      sketcher.emplace(store_->family().MakeSketcher());
    }
    std::unique_ptr<AnySketch> sketch = store_->family().NewSketch();
    Status st = sketcher->status();
    if (st.ok()) st = sketcher->value()->Sketch(req->query, sketch.get());
    if (!st.ok()) {
      executed(req);
      req->topk_done(TopKResult(std::move(st)));
      continue;
    }
    topks.push_back(req);
    topk_queries.push_back(sketch.get());
    sketches.push_back(std::move(sketch));
    topk_ks.push_back(req->k);
  }
  if (topks.empty()) return;

  std::vector<TopKResult> results =
      engine_.TopKSketchBatch(topk_queries, topk_ks);
  IPS_CHECK(results.size() == topks.size());
  for (size_t i = 0; i < topks.size(); ++i) {
    executed(topks[i]);
    topks[i]->topk_done(std::move(results[i]));
  }
}

FrontDoorFuture<double> FrontDoor::SubmitEstimate(uint64_t id_a, uint64_t id_b,
                                                  uint64_t deadline_ns) {
  auto state =
      std::make_shared<front_door_internal::FutureState<double>>();
  SubmitEstimate(
      id_a, id_b,
      [state](EstimateResult r) {
        front_door_internal::Complete(state, std::move(r));
      },
      deadline_ns);
  return FrontDoorFuture<double>(std::move(state));
}

void FrontDoor::SubmitEstimate(uint64_t id_a, uint64_t id_b,
                               EstimateCallback done, uint64_t deadline_ns) {
  IPS_CHECK(done != nullptr);
  auto req = std::make_unique<Request>();
  req->kind = Request::Kind::kEstimate;
  req->id_a = id_a;
  req->id_b = id_b;
  req->est_done = std::move(done);
  req->deadline_ns = deadline_ns;
  Enqueue(std::move(req));
}

FrontDoorFuture<std::vector<QueryHit>> FrontDoor::SubmitTopK(
    const SparseVector& query, size_t k, uint64_t deadline_ns) {
  auto state = std::make_shared<
      front_door_internal::FutureState<std::vector<QueryHit>>>();
  SubmitTopK(
      query, k,
      [state](TopKResult r) {
        front_door_internal::Complete(state, std::move(r));
      },
      deadline_ns);
  return FrontDoorFuture<std::vector<QueryHit>>(std::move(state));
}

void FrontDoor::SubmitTopK(SparseVector query, size_t k, TopKCallback done,
                           uint64_t deadline_ns) {
  IPS_CHECK(done != nullptr);
  auto req = std::make_unique<Request>();
  req->kind = Request::Kind::kTopK;
  req->query = std::move(query);
  req->k = k;
  req->topk_done = std::move(done);
  req->deadline_ns = deadline_ns;
  Enqueue(std::move(req));
}

}  // namespace ipsketch
