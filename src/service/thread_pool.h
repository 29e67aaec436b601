// A fixed-size worker pool with a FIFO task queue — the execution substrate
// of the service layer. SketchStore fans batch ingest across it and
// QueryEngine fans shard scans across it; both also run correctly with no
// pool at all (serial fallback), so the pool is a pure throughput knob.
//
// Deliberately minimal: std::function tasks, one mutex, one condition
// variable. The service workloads hand the pool coarse chunks (hundreds of
// vectors to sketch, whole shards to scan), so per-task overhead is noise
// and work stealing would buy nothing.

#ifndef IPSKETCH_SERVICE_THREAD_POOL_H_
#define IPSKETCH_SERVICE_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "service/metrics.h"

namespace ipsketch {

/// Fixed-size thread pool. Construction spawns the workers; destruction
/// drains every task already submitted, then joins them.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Finishes all queued tasks, then stops and joins the workers.
  ~ThreadPool();

  /// Number of worker threads.
  size_t num_threads() const { return workers_.size(); }

  /// Enqueues `task` for execution on some worker. Returns true iff the
  /// task was accepted; false once the pool has begun stopping (work
  /// submitted from a task that is still draining during destruction is
  /// rejected, not run and not aborted on). Tasks must not throw — the
  /// service layer reports failures through Status captured in the
  /// closure, never through exceptions.
  [[nodiscard]] bool Submit(std::function<void()> task);

  /// Runs fn(i) for every i in [0, n), spread across the workers, and
  /// returns when all calls have finished.
  ///
  /// Safe to call from multiple threads at once, and — unlike a naive
  /// submit-and-wait — safe to call from *inside* a pool task: a call from
  /// one of this pool's own workers runs the whole loop inline on that
  /// worker (queueing would deadlock: the worker would block on completion
  /// while its subtasks sit in the queue behind it). From outside the pool
  /// the calling thread normally blocks without executing tasks; it runs
  /// iterations itself only when the pool is stopping and rejects the
  /// submissions.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  /// A queued task plus its enqueue timestamp, where its queue wait starts.
  struct QueuedTask {
    std::function<void()> fn;
    uint64_t enqueue_ns = 0;
  };

  void WorkerLoop();

  std::vector<std::thread> workers_;
  // kPoolQueue: task bodies run with no lock held, so nothing is ever
  // acquired under the queue lock; it may itself be taken while holding
  // store/index shard locks (Submit from a shard scan).
  Mutex mu_{LockRank::kPoolQueue};
  std::deque<QueuedTask> queue_ IPS_GUARDED_BY(mu_);
  bool stopping_ IPS_GUARDED_BY(mu_) = false;
  CondVar cv_;

  // Process-wide pool metrics (all ThreadPool instances aggregate):
  // queue depth, accepted/rejected/executed counts, and how long tasks
  // waited in the queue vs ran. Registry-owned; valid forever.
  metrics::Gauge* queue_depth_;
  metrics::Counter* tasks_executed_;
  metrics::Counter* tasks_rejected_;
  metrics::Histogram* task_wait_ns_;
  metrics::Histogram* task_run_ns_;
};

}  // namespace ipsketch

#endif  // IPSKETCH_SERVICE_THREAD_POOL_H_
