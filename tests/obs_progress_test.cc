#include "obs/progress.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "decomp/find_max_cliques.h"
#include "obs/telemetry.h"
#include "gen/generators.h"
#include "gen/special.h"
#include "util/random.h"

namespace mce::obs {
namespace {

// The TSan-visible contract: 8 threads register and retire blocks while a
// sampler thread snapshots, and every successive snapshot reports
// monotone non-decreasing completed_cost and fraction.
TEST(ProgressEstimatorTest, ConcurrentRegisterRetireStaysMonotone) {
  ProgressEstimator progress;
  constexpr int kThreads = 8;
  constexpr int kBlocksPerThread = 400;
  std::atomic<bool> done{false};

  std::thread sampler([&] {
    double last_completed = -1;
    double last_fraction = -1;
    while (!done.load(std::memory_order_acquire)) {
      const ProgressSnapshot s = progress.TakeSnapshot();
      EXPECT_GE(s.completed_cost, last_completed);
      EXPECT_GE(s.fraction, last_fraction);
      EXPECT_GE(s.fraction, 0.0);
      EXPECT_LE(s.fraction, 1.0);
      last_completed = s.completed_cost;
      last_fraction = s.fraction;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&progress, t] {
      const uint32_t level = static_cast<uint32_t>(t % 3);
      for (int b = 0; b < kBlocksPerThread; ++b) {
        const double cost = 1.0 + (b % 7);
        progress.RegisterBlock(level, cost);
        progress.RetireBlock(level, cost);
        progress.AddCliques(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  progress.MarkComplete();
  done.store(true, std::memory_order_release);
  sampler.join();

  // Every registered unit was retired, exactly.
  EXPECT_DOUBLE_EQ(progress.registered_cost(), progress.completed_cost());
  EXPECT_EQ(progress.cliques(),
            static_cast<uint64_t>(kThreads) * kBlocksPerThread);

  const ProgressSnapshot final_snapshot = progress.TakeSnapshot();
  EXPECT_TRUE(final_snapshot.complete);
  EXPECT_EQ(final_snapshot.fraction, 1.0);
  EXPECT_EQ(final_snapshot.blocks, final_snapshot.blocks_done);
  EXPECT_EQ(final_snapshot.blocks,
            static_cast<uint64_t>(kThreads) * kBlocksPerThread);

  const ProgressAccounting accounting = progress.Accounting();
  EXPECT_TRUE(accounting.enabled);
  EXPECT_DOUBLE_EQ(accounting.predicted_cost, accounting.completed_cost);
}

// The denominator grows mid-run: registering a new burst of cost must not
// push the reported fraction backwards, and the ETA must stay sane.
TEST(ProgressEstimatorTest, EtaSurvivesGrowingDenominator) {
  ProgressEstimator progress;
  progress.BeginLevel(0);
  progress.RegisterBlock(0, 50.0);
  progress.RegisterBlock(0, 50.0);
  progress.TakeSnapshot();  // establish an EWMA baseline interval

  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  progress.RetireBlock(0, 50.0);
  const ProgressSnapshot mid = progress.TakeSnapshot();
  EXPECT_GT(mid.throughput, 0.0);
  EXPECT_GE(mid.eta_seconds, 0.0);
  EXPECT_GT(mid.fraction, 0.0);

  // A new level doubles the outstanding work. Raw completed/registered
  // halves, but the reported fraction is a high-water mark.
  progress.BeginLevel(1);
  progress.RegisterBlock(1, 100.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const ProgressSnapshot grown = progress.TakeSnapshot();
  EXPECT_GE(grown.fraction, mid.fraction);
  EXPECT_GE(grown.eta_seconds, 0.0);
  // More work outstanding than before the burst.
  EXPECT_GT(grown.registered_cost - grown.completed_cost,
            mid.registered_cost - mid.completed_cost);

  progress.RetireBlock(0, 50.0);
  progress.RetireBlock(1, 100.0);
  progress.MarkComplete();
  const ProgressSnapshot final_snapshot = progress.TakeSnapshot();
  EXPECT_EQ(final_snapshot.fraction, 1.0);
  EXPECT_EQ(final_snapshot.eta_seconds, 0.0);

  const ProgressAccounting accounting = progress.Accounting();
  EXPECT_GT(accounting.samples, 0u);
  EXPECT_GE(accounting.mean_abs_eta_error_seconds, 0.0);
}

// A live run must never claim exactly 1.0 — pipelined analysis can
// transiently retire everything registered so far while decompose is
// still producing. Only MarkComplete reports 1.0.
TEST(ProgressEstimatorTest, IncompleteRunNeverReportsFractionOne) {
  ProgressEstimator progress;
  progress.RegisterBlock(0, 10.0);
  progress.RetireBlock(0, 10.0);
  const ProgressSnapshot live = progress.TakeSnapshot();
  EXPECT_LT(live.fraction, 1.0);
  progress.MarkComplete();
  EXPECT_EQ(progress.TakeSnapshot().fraction, 1.0);
}

TEST(ProgressEstimatorTest, ZeroBlockRunCompletesCleanly) {
  ProgressEstimator progress;
  progress.MarkComplete();
  const ProgressSnapshot s = progress.TakeSnapshot();
  EXPECT_TRUE(s.complete);
  EXPECT_EQ(s.fraction, 1.0);
  EXPECT_EQ(s.eta_seconds, 0.0);
  EXPECT_EQ(s.blocks, 0u);

  const ProgressAccounting accounting = progress.Accounting();
  EXPECT_TRUE(accounting.enabled);
  EXPECT_EQ(accounting.predicted_cost, 0.0);
  EXPECT_EQ(accounting.blocks, 0u);
  EXPECT_EQ(accounting.samples, 0u);
}

TEST(ProgressEstimatorTest, MarkCompleteIsIdempotent) {
  ProgressEstimator progress;
  progress.MarkComplete();
  const double wall = progress.Accounting().wall_seconds;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  progress.MarkComplete();
  EXPECT_EQ(progress.Accounting().wall_seconds, wall);
}

// An executor detaches its gauge source when its run returns, before the
// sampler writes the final heartbeat: the estimator keeps the source's
// last sample, so that record still reports the finished run's readings.
TEST(ProgressEstimatorTest, ClearedGaugeSourceLeavesItsLastSample) {
  ProgressEstimator progress;
  GaugeSample live;
  live.queue_depth = 3;
  live.mem_charged_bytes = 40;
  live.mem_peak_bytes = 100;
  progress.SetGaugeSource([&live] { return live; });
  EXPECT_EQ(progress.TakeSnapshot().gauges.mem_peak_bytes, 100u);
  live.queue_depth = 0;
  live.mem_charged_bytes = 0;
  live.mem_peak_bytes = 250;
  progress.ClearGaugeSource();
  const GaugeSample last = live;
  live.mem_peak_bytes = 999;  // detached: no snapshot reads the source now
  progress.MarkComplete();
  for (int i = 0; i < 2; ++i) {
    const GaugeSample gauges = progress.TakeSnapshot().gauges;
    EXPECT_EQ(gauges.queue_depth, last.queue_depth);
    EXPECT_EQ(gauges.mem_charged_bytes, last.mem_charged_bytes);
    EXPECT_EQ(gauges.mem_peak_bytes, last.mem_peak_bytes);
  }
}

// End-to-end: both executors drive the same estimator contract — every
// registered unit retired, clique counts matching the actual result —
// and they register the same predicted cost for the same input (the
// block streams are identical by the emission contract).
TEST(ProgressEstimatorTest, SerialAndPooledFinalAccountingAgree) {
  Rng rng(171);
  const Graph g = gen::BarabasiAlbert(80, 4, &rng);

  auto run = [&](decomp::ExecutorKind kind, uint32_t threads) {
    ProgressEstimator progress;
    decomp::FindMaxCliquesOptions options;
    options.max_block_size = 12;
    options.executor = kind;
    options.num_threads = threads;
    options.progress = &progress;
    decomp::FindMaxCliquesResult result = decomp::FindMaxCliques(g, options);
    EXPECT_GT(result.cliques.size(), 0u);
    EXPECT_EQ(progress.cliques(), result.cliques.size());
    EXPECT_TRUE(progress.complete());
    return result;
  };

  const decomp::FindMaxCliquesResult serial =
      run(decomp::ExecutorKind::kSerial, 1);
  const decomp::FindMaxCliquesResult pooled =
      run(decomp::ExecutorKind::kPooled, 4);

  for (const decomp::FindMaxCliquesResult* r : {&serial, &pooled}) {
    EXPECT_TRUE(r->progress.enabled);
    EXPECT_GT(r->progress.predicted_cost, 0.0);
    EXPECT_GT(r->progress.blocks, 0u);
    // Retired must equal registered to within float-sum noise.
    EXPECT_NEAR(r->progress.completed_cost, r->progress.predicted_cost,
                1e-9 * r->progress.predicted_cost);
  }
  EXPECT_NEAR(serial.progress.predicted_cost, pooled.progress.predicted_cost,
              1e-9 * serial.progress.predicted_cost);
  EXPECT_EQ(serial.progress.blocks, pooled.progress.blocks);
  EXPECT_EQ(serial.progress.cliques, pooled.progress.cliques);
}

// The m-core fallback path registers and retires its cost like any other
// block, so a fallback run still ends complete with balanced books.
TEST(ProgressEstimatorTest, FallbackRunBalancesItsBooks) {
  const Graph g = gen::Complete(10);  // K10 with m=5: immediate fallback
  for (const decomp::ExecutorKind kind :
       {decomp::ExecutorKind::kSerial, decomp::ExecutorKind::kPooled}) {
    ProgressEstimator progress;
    decomp::FindMaxCliquesOptions options;
    options.max_block_size = 5;
    options.executor = kind;
    options.num_threads = 2;
    options.progress = &progress;
    decomp::FindMaxCliquesResult result = decomp::FindMaxCliques(g, options);
    EXPECT_TRUE(result.used_fallback);
    EXPECT_EQ(result.cliques.size(), 1u);

    const ProgressAccounting accounting = progress.Accounting();
    EXPECT_TRUE(accounting.enabled);
    EXPECT_GT(accounting.predicted_cost, 0.0);
    EXPECT_NEAR(accounting.completed_cost, accounting.predicted_cost,
                1e-9 * accounting.predicted_cost);
    EXPECT_EQ(accounting.cliques, 1u);
    EXPECT_EQ(progress.TakeSnapshot().fraction, 1.0);
  }
}

// The sampler end of the contract: a short run produces a parseable
// NDJSON file whose last record is final and whose fraction is 1.0.
TEST(TelemetrySamplerTest, WritesFinalRecordOnFinish) {
  const std::string path = ::testing::TempDir() + "telemetry_sampler_test.ndjson";
  ProgressEstimator progress;
  TelemetryOptions options;
  options.out_path = path;
  options.interval_ms = 1;
  {
    TelemetrySampler sampler(&progress, options);
    ASSERT_TRUE(sampler.Start());
    progress.RegisterBlock(0, 4.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    progress.RetireBlock(0, 4.0);
    sampler.Finish(/*success=*/true);
  }
  EXPECT_TRUE(progress.complete());

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::string last;
  size_t records = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    last = line;
    ++records;
  }
  ASSERT_GE(records, 1u);
  EXPECT_NE(last.find("\"final\":true"), std::string::npos) << last;
  EXPECT_NE(last.find("\"success\":true"), std::string::npos) << last;
  EXPECT_NE(last.find("\"fraction\":1"), std::string::npos) << last;
  std::remove(path.c_str());
}

// The error-exit half of the contract: a run that dies mid-flight (the
// sink failed, an exception unwound through the sampler's destructor)
// must still terminate the stream with a `final:true` record — so a
// consumer can tell "completed with an error" from "truncated file" —
// but carry `success:false` and the honest partial fraction, never a
// fabricated 1.0.
TEST(TelemetrySamplerTest, FailedRunEmitsFinalRecordWithPartialFraction) {
  for (const bool explicit_finish : {true, false}) {
    const std::string path =
        ::testing::TempDir() + "telemetry_sampler_fail_test.ndjson";
    ProgressEstimator progress;
    TelemetryOptions options;
    options.out_path = path;
    options.interval_ms = 1;
    {
      TelemetrySampler sampler(&progress, options);
      ASSERT_TRUE(sampler.Start());
      // Half the registered cost retires, then the run "fails": either
      // an explicit error exit or the destructor's Finish(false) on
      // exception unwind.
      progress.RegisterBlock(0, 4.0);
      progress.RegisterBlock(0, 4.0);
      progress.RetireBlock(0, 4.0);
      if (explicit_finish) sampler.Finish(/*success=*/false);
    }
    EXPECT_FALSE(progress.complete());

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    std::string last;
    while (std::getline(in, line)) {
      if (!line.empty()) last = line;
    }
    ASSERT_FALSE(last.empty());
    EXPECT_NE(last.find("\"final\":true"), std::string::npos) << last;
    EXPECT_NE(last.find("\"success\":false"), std::string::npos) << last;
    EXPECT_EQ(last.find("\"fraction\":1,"), std::string::npos) << last;
    EXPECT_NE(last.find("\"fraction\":0.5"), std::string::npos) << last;
    std::remove(path.c_str());
  }
}

TEST(TelemetrySamplerTest, UnopenableOutputFailsStartAndStaysInert) {
  ProgressEstimator progress;
  TelemetryOptions options;
  options.out_path = ::testing::TempDir() + "no/such/dir/heartbeat.ndjson";
  TelemetrySampler sampler(&progress, options);
  EXPECT_FALSE(sampler.Start());
  sampler.Finish(true);  // must be safe even though Start failed
}

}  // namespace
}  // namespace mce::obs
