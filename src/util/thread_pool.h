// Fixed-size worker pool for intra-machine parallelism.
//
// The paper's cluster machines each run 4 CPUs x 8 threads and process
// their assigned blocks in parallel; the FindMaxCliques pipeline (decomp)
// uses this pool for the same purpose on the local machine. Tasks are
// opaque std::function<void()>; Wait() drains the queue. Submit is safe
// from any thread, including from inside a running task. Ordering beyond
// FIFO (the execution engine's cost-ordered dispatch) is layered on top
// by the caller.

#ifndef MCE_UTIL_THREAD_POOL_H_
#define MCE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mce::obs {
class MetricsRegistry;
class Histogram;
}  // namespace mce::obs

namespace mce {

class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Index of the calling pool worker in [0, num_threads()), or
  /// kNotAWorker when the caller is not one of this process's pool worker
  /// threads. Used to give each worker its own scratch (the pooled
  /// engine's per-worker workspaces).
  static constexpr size_t kNotAWorker = static_cast<size_t>(-1);
  static size_t CurrentWorkerIndex();

  /// Enqueues a task. Never blocks (unbounded queue). Thread-safe.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void Wait();

  /// Tasks queued but not yet picked up by a worker. A point-in-time
  /// gauge (telemetry heartbeats); the depth can change before the
  /// caller looks at it.
  size_t QueueDepth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

 private:
  void WorkerLoop(size_t worker_index);

  mutable std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t active_ = 0;
  bool shutdown_ = false;
  // Cached queue-depth histogram handle, revalidated against the installed
  // obs::MetricsRegistry on every Submit (guarded by mutex_); instrument
  // handles are stable for a registry's lifetime, so the lookup happens
  // once per (pool, registry) pair.
  obs::MetricsRegistry* metrics_registry_ = nullptr;
  obs::Histogram* queue_depth_ = nullptr;
  std::vector<std::thread> threads_;
};

}  // namespace mce

#endif  // MCE_UTIL_THREAD_POOL_H_
