#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace mce {

namespace {

thread_local size_t current_worker_index = ThreadPool::kNotAWorker;

}  // namespace

size_t ThreadPool::CurrentWorkerIndex() { return current_worker_index; }

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task, TaskKey key) {
  MCE_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MCE_CHECK(!shutdown_);
    queue_.push_back(Entry{key, next_seq_++, std::move(task)});
    std::push_heap(queue_.begin(), queue_.end());
    if (obs::MetricsRegistry* m = obs::MetricsRegistry::installed()) {
      if (m != metrics_registry_) {
        static const double kDepthBounds[] = {1,  2,   4,   8,   16,  32,
                                              64, 128, 256, 512, 1024};
        metrics_registry_ = m;
        queue_depth_ =
            &m->GetHistogram("threadpool.queue_depth_at_dispatch",
                             kDepthBounds);
      }
      queue_depth_->Observe(static_cast<double>(queue_.size()));
    }
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  current_worker_index = worker_index;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // Trace the wait as a worker-idle span, but only when the worker
    // actually blocks and a recorder is installed for the whole wait.
    obs::TraceRecorder* recorder = nullptr;
    int64_t idle_begin_us = 0;
    if (queue_.empty() && !shutdown_) {
      recorder = obs::TraceRecorder::installed();
      if (recorder != nullptr) idle_begin_us = obs::NowMicros();
    }
    task_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (recorder != nullptr && obs::TraceRecorder::installed() == recorder) {
      obs::TraceEvent idle;
      idle.begin_us = idle_begin_us;
      idle.end_us = obs::NowMicros();
      idle.kind = obs::SpanKind::kWorkerIdle;
      idle.index = worker_index;
      recorder->Record(idle);
    }
    if (queue_.empty()) {
      if (shutdown_) return;
      continue;
    }
    std::pop_heap(queue_.begin(), queue_.end());
    std::function<void()> task = std::move(queue_.back().fn);
    queue_.pop_back();
    ++active_;
    lock.unlock();
    task();
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) all_done_.notify_all();
  }
}

}  // namespace mce
