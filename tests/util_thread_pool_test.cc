#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <latch>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace mce {
namespace {

// Keeps busy-work loops from being optimized away.
std::atomic<int> benchmark_sink_{0};

// Runs `submit` while a gate task holds the pool's only worker, so every
// task it submits queues and the pool's order alone decides what runs
// next; returns once they have all run.
void SubmitWhileHeld(ThreadPool& pool, const std::function<void()>& submit) {
  ASSERT_EQ(pool.num_threads(), 1u);
  std::latch held(1);
  std::latch release(1);
  pool.Submit([&held, &release] {
    held.count_down();
    release.wait();
  });
  held.wait();
  submit();
  release.count_down();
  pool.Wait();
}

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

TEST(ThreadPoolTest, RunsHighestCostFirstWithSubmissionOrderTies) {
  ThreadPool pool(1);
  std::vector<int> ran;
  SubmitWhileHeld(pool, [&pool, &ran] {
    pool.Submit([&ran] { ran.push_back(1); }, {1, 1.0});
    pool.Submit([&ran] { ran.push_back(5); }, {1, 5.0});
    pool.Submit([&ran] { ran.push_back(3); }, {1, 3.0});
    pool.Submit([&ran] { ran.push_back(50); }, {1, 5.0});  // tie: after 5
  });
  EXPECT_EQ(ran, (std::vector<int>{5, 50, 3, 1}));
}

// The pooled engine keys level h's analysis tasks tier h + 1, and delivery
// is level-ordered: every queued task of a lower tier runs before any of a
// higher one, however costly; within a tier the cost order and the
// submission-order tiebreak hold.
TEST(ThreadPoolTest, RunsLowestTierFirst) {
  ThreadPool pool(1);
  std::vector<int> ran;
  SubmitWhileHeld(pool, [&pool, &ran] {
    pool.Submit([&ran] { ran.push_back(10); }, {2, 1000.0});
    pool.Submit([&ran] { ran.push_back(1); }, {1, 1.0});
    pool.Submit([&ran] { ran.push_back(20); }, {3, 9.0});
    pool.Submit([&ran] { ran.push_back(11); }, {2, 1000.0});  // after 10
    pool.Submit([&ran] { ran.push_back(2); }, {1, 2.0});
    pool.Submit([&ran] { ran.push_back(3); }, {1, 1.0});  // tie: after 1
  });
  EXPECT_EQ(ran, (std::vector<int>{2, 1, 3, 10, 11, 20}));
}

// A DecomposeTask is submitted unkeyed while analysis tasks are queued,
// and every deeper level waits on it: it runs before all of them, and
// unkeyed tasks keep their submission order.
TEST(ThreadPoolTest, UnkeyedTaskRunsBeforeQueuedKeyedWork) {
  ThreadPool pool(1);
  std::vector<int> ran;
  SubmitWhileHeld(pool, [&pool, &ran] {
    pool.Submit([&ran] { ran.push_back(1); }, {1, 1e9});
    pool.Submit([&ran] { ran.push_back(2); }, {2, 5.0});
    pool.Submit([&ran] { ran.push_back(0); });
    pool.Submit([&ran] { ran.push_back(-1); });
  });
  EXPECT_EQ(ran, (std::vector<int>{0, -1, 1, 2}));
}

// Largest-predicted-first scheduling: a level whose giant task is
// submitted last must still finish within a small factor of its critical
// path — with FIFO dispatch the giant starts only after the small tasks
// drain, pushing the makespan toward (small + giant); with cost-ordered
// dispatch the giant starts as soon as a worker frees and the smalls fill
// the other workers.
TEST(ThreadPoolTest, GiantTaskSubmittedLastFinishesNearCriticalPath) {
  constexpr int kWorkers = 4;
  constexpr auto kGiant = std::chrono::milliseconds(240);
  constexpr auto kSmall = std::chrono::milliseconds(20);
  constexpr int kSmallCount = 12;
  // Critical path = the giant task; the smalls pack into the remaining
  // three workers well inside its window.
  ThreadPool pool(kWorkers);
  // Submission order: all smalls first, the giant last — the adversarial
  // order that defeats FIFO.
  for (int i = 0; i < kSmallCount; ++i) {
    pool.Submit([kSmall] { std::this_thread::sleep_for(kSmall); }, {1, 1.0});
  }
  pool.Submit([kGiant] { std::this_thread::sleep_for(kGiant); }, {1, 1000.0});
  const auto begin = std::chrono::steady_clock::now();
  pool.Wait();
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  // FIFO would need ceil(12/4)*20ms before the giant even starts
  // (makespan >= 300ms); cost-ordered dispatch keeps the level within
  // 1.2x the 240ms critical path. The bound leaves slack for scheduler
  // jitter but stays below the FIFO floor.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed),
            kGiant * 12 / 10)
      << "giant-last level exceeded 1.2x its critical path";
}

}  // namespace
}  // namespace mce
