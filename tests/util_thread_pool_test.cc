#include "util/thread_pool.h"

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace mce {
namespace {

// Keeps busy-work loops from being optimized away.
std::atomic<int> benchmark_sink_{0};

TEST(ThreadPoolTest, RunsAllTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), 100);
  }
}

TEST(ThreadPoolTest, WaitBlocksUntilDone) {
  std::atomic<int> counter{0};
  ThreadPool pool(2);
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&counter] {
      // Small busy work so Wait actually has something to wait for.
      int x = 0;
      for (int j = 0; j < 10000; ++j) x += j;
      benchmark_sink_.store(x, std::memory_order_relaxed);
      counter.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 20);
  // Pool is reusable after Wait.
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 21);
}

TEST(ThreadPoolTest, AtLeastOneThread) {
  ThreadPool pool(0);  // clamped to 1
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No explicit Wait: the destructor must finish the work.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, StressSubmitFromManyThreads) {
  // Satellite regression: Submit must be safe from any thread, including
  // concurrent external submitters and tasks that submit follow-up work
  // from inside the pool.
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kSubmitters = 8;
  constexpr int kTasksPerSubmitter = 200;
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &counter] {
      for (int i = 0; i < kTasksPerSubmitter; ++i) {
        pool.Submit([&pool, &counter] {
          counter.fetch_add(1);
          // Every 4th task fans out a nested task.
          if (counter.load(std::memory_order_relaxed) % 4 == 0) {
            pool.Submit([&counter] { counter.fetch_add(1); });
          }
        });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  pool.Wait();
  EXPECT_GE(counter.load(), kSubmitters * kTasksPerSubmitter);
  // Wait drained everything, nested tasks included: the count is stable.
  const int settled = counter.load();
  pool.Wait();
  EXPECT_EQ(counter.load(), settled);
}

TEST(ThreadPoolTest, CurrentWorkerIndexIdentifiesWorkers) {
  // Off-pool threads are not workers.
  EXPECT_EQ(ThreadPool::CurrentWorkerIndex(), ThreadPool::kNotAWorker);
  ThreadPool pool(3);
  std::mutex mu;
  std::set<size_t> seen;
  for (int i = 0; i < 300; ++i) {
    pool.Submit([&mu, &seen] {
      const size_t index = ThreadPool::CurrentWorkerIndex();
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(index);
    });
  }
  pool.Wait();
  EXPECT_EQ(ThreadPool::CurrentWorkerIndex(), ThreadPool::kNotAWorker);
  ASSERT_FALSE(seen.empty());
  for (size_t index : seen) EXPECT_LT(index, pool.num_threads());
}

TEST(ThreadPoolTest, TasksCanSubmitResults) {
  ThreadPool pool(4);
  std::vector<int> results(64, 0);
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&results, i] { results[i] = i * i; });
  }
  pool.Wait();
  for (int i = 0; i < 64; ++i) EXPECT_EQ(results[i], i * i);
}

}  // namespace
}  // namespace mce
