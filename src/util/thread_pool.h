// Fixed-size worker pool for intra-machine parallelism.
//
// The paper's cluster machines each run 4 CPUs x 8 threads and process
// their assigned blocks in parallel; the FindMaxCliques pipeline (decomp)
// uses this pool for the same purpose on the local machine. Tasks are
// opaque std::function<void()>; Wait() drains the queue. Submit is safe
// from any thread, including from inside a running task.
//
// The pool is the engine's one ready queue: each task carries a key
// (tier, cost), and a free worker runs the queued task with the lowest
// tier, then the highest cost, then the earliest submission. Unkeyed tasks
// are tier 0 with cost 0, so a pool fed only unkeyed tasks runs them FIFO.

#ifndef MCE_UTIL_THREAD_POOL_H_
#define MCE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
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
  /// A task's place in the ready queue: lower tiers run first, and within
  /// a tier higher costs run first; equal keys run in submission order.
  struct TaskKey {
    uint32_t tier;
    double cost;
  };

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

  /// Enqueues a task under `key`. Never blocks (unbounded queue).
  /// Thread-safe.
  void Submit(std::function<void()> task, TaskKey key = {});

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
  struct Entry {
    TaskKey key;
    uint64_t seq = 0;  // submission order: the tiebreak at equal keys
    std::function<void()> fn;

    /// std::push_heap order: the entry to run next is the greatest.
    bool operator<(const Entry& other) const {
      if (key.tier != other.key.tier) return key.tier > other.key.tier;
      if (key.cost != other.key.cost) return key.cost < other.key.cost;
      return seq > other.seq;
    }
  };

  void WorkerLoop(size_t worker_index);

  mutable std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::vector<Entry> queue_;  // a heap; guarded by mutex_
  uint64_t next_seq_ = 0;
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
