#include "service/thread_pool.h"

#include <atomic>
#include <utility>

#include "common/status.h"

namespace ipsketch {
namespace {

// The pool (if any) whose WorkerLoop owns the current thread. Lets
// ParallelFor detect reentrancy from its own workers, where queueing the
// loop and blocking on it would deadlock: this worker cannot drain the
// queue while it waits, and with every worker doing the same nobody can.
thread_local const ThreadPool* tls_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  auto& registry = metrics::MetricsRegistry::Global();
  queue_depth_ = &registry.GetGauge(
      "ipsketch_pool_queue_depth", "Tasks accepted but not yet dequeued");
  tasks_executed_ = &registry.GetCounter(
      "ipsketch_pool_tasks_executed_total", "Tasks run to completion");
  tasks_rejected_ = &registry.GetCounter(
      "ipsketch_pool_tasks_rejected_total",
      "Submissions refused because the pool was stopping");
  task_wait_ns_ = &registry.GetHistogram(
      "ipsketch_pool_task_wait_ns", "Queue wait: submit to dequeue");
  task_run_ns_ = &registry.GetHistogram(
      "ipsketch_pool_task_run_ns", "Task body execution time");
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::Submit(std::function<void()> task) {
  IPS_CHECK(task != nullptr);
  const uint64_t enqueue_ns = metrics::NowNs();
  {
    MutexLock lock(&mu_);
    // Rejection, not IPS_CHECK: a task still draining during destruction
    // may legitimately try to schedule follow-up work; the caller decides
    // whether to drop it or run it inline.
    if (stopping_) {
      tasks_rejected_->Add(1);
      return false;
    }
    queue_.push_back({std::move(task), enqueue_ns});
  }
  queue_depth_->Add(1);
  cv_.NotifyOne();
  return true;
}

void ThreadPool::WorkerLoop() {
  tls_worker_pool = this;
  for (;;) {
    QueuedTask task;
    {
      MutexLock lock(&mu_);
      // Explicit loop, not a predicate lambda: the thread-safety analysis
      // checks the guarded reads here under the held lock (lambdas are
      // analyzed without the caller's lock set).
      while (!stopping_ && queue_.empty()) cv_.Wait(mu_);
      // Drain the queue even when stopping: Submit is rejected after stop,
      // so this terminates, and destruction never drops accepted work.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_depth_->Add(-1);
    const uint64_t start_ns = metrics::NowNs();
    task_wait_ns_->Record(start_ns - task.enqueue_ns);
    task.fn();
    task_run_ns_->Record(metrics::NowNs() - start_ns);
    tasks_executed_->Add(1);
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // Reentrant call from one of this pool's own workers: run inline. The
  // worker cannot block on queued subtasks — they would wait in the queue
  // behind the very task that is waiting for them.
  if (n == 1 || tls_worker_pool == this) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // One task per worker, each pulling the next index from a shared counter:
  // self-balancing when iterations have uneven cost (skewed shards, vectors
  // with very different nnz) without any tuning parameter.
  struct Sync {
    std::atomic<size_t> next{0};
    std::atomic<size_t> live;
    // kLeaf: task bodies hold nothing when they signal completion, and the
    // caller acquires it holding nothing; nothing nests under it.
    Mutex mu{LockRank::kLeaf};
    CondVar done;
    explicit Sync(size_t tasks) : live(tasks) {}
  };
  const size_t tasks = std::min(n, num_threads());
  auto sync = std::make_shared<Sync>(tasks);
  const auto body = [sync, n, &fn] {
    for (;;) {
      const size_t i = sync->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      fn(i);
    }
    if (sync->live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      MutexLock lock(&sync->mu);
      sync->done.NotifyAll();
    }
  };
  for (size_t t = 0; t < tasks; ++t) {
    // A stopping pool rejects the submission; the loop still completes —
    // the calling thread runs that share inline (the first inline run
    // drains the whole counter, later ones exit immediately).
    if (!Submit(body)) body();
  }
  MutexLock lock(&sync->mu);
  while (sync->live.load(std::memory_order_acquire) != 0) {
    sync->done.Wait(sync->mu);
  }
}

}  // namespace ipsketch
