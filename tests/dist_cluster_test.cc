#include "dist/cluster.h"

#include <vector>

#include <gtest/gtest.h>

namespace mce::dist {
namespace {

using Tasks = std::vector<decomp::BlockTaskRecord>;

decomp::BlockTaskRecord MakeTask(double est, double compute, uint64_t bytes) {
  decomp::BlockTaskRecord t;
  t.estimated_cost = est;
  t.seconds = compute;
  t.bytes = bytes;
  return t;
}

TEST(CostModelTest, ShipAndDiskCosts) {
  CostModel cost;
  cost.network_latency_s = 0.001;
  cost.network_bandwidth_bytes_per_s = 1000.0;
  cost.disk_bandwidth_bytes_per_s = 500.0;
  EXPECT_DOUBLE_EQ(cost.ShipSeconds(2000), 0.001 + 2.0);
  EXPECT_DOUBLE_EQ(cost.DiskSeconds(1000), 2.0);
  cost.cpu_speed_factor = 2.0;
  EXPECT_DOUBLE_EQ(cost.ComputeSeconds(3.0), 6.0);
}

TEST(ClusterTest, MakespanIsBusiestWorker) {
  ClusterConfig config;
  config.num_workers = 2;
  config.cost.network_latency_s = 0;
  config.cost.network_bandwidth_bytes_per_s = 1e18;  // comm ~ 0
  Tasks tasks{MakeTask(3, 3.0, 0), MakeTask(2, 2.0, 0), MakeTask(2, 2.0, 0)};
  SimulationResult r = SimulateCluster(tasks, config);
  // LPT: worker A gets 3.0, worker B gets 2+2 = 4.0.
  EXPECT_NEAR(r.makespan_seconds, 4.0, 1e-9);
  EXPECT_NEAR(r.total_compute_seconds, 7.0, 1e-9);
  EXPECT_GT(r.Speedup(), 1.0);
}

TEST(ClusterTest, CommunicationCountsTowardMakespan) {
  ClusterConfig config;
  config.num_workers = 1;
  config.cost.network_latency_s = 0.5;
  config.cost.network_bandwidth_bytes_per_s = 100.0;
  Tasks tasks{MakeTask(1, 1.0, 200)};  // ship = 0.5 + 2.0
  SimulationResult r = SimulateCluster(tasks, config);
  EXPECT_NEAR(r.makespan_seconds, 3.5, 1e-9);
  EXPECT_NEAR(r.total_comm_seconds, 2.5, 1e-9);
  EXPECT_EQ(r.workers[0].bytes_received, 200u);
  EXPECT_EQ(r.workers[0].tasks, 1u);
}

TEST(ClusterTest, SkewOfPerfectBalanceIsOne) {
  ClusterConfig config;
  config.num_workers = 4;
  config.cost.network_latency_s = 0;
  config.cost.network_bandwidth_bytes_per_s = 1e18;
  Tasks tasks(8, MakeTask(1, 1.0, 0));
  SimulationResult r = SimulateCluster(tasks, config);
  EXPECT_NEAR(r.Skew(), 1.0, 1e-9);
}

TEST(ClusterTest, SkewDetectsImbalance) {
  ClusterConfig config;
  config.num_workers = 2;
  config.strategy = PartitionStrategy::kRoundRobin;
  config.cost.network_latency_s = 0;
  config.cost.network_bandwidth_bytes_per_s = 1e18;
  // Round robin sends the giant task and a small one to worker 0.
  Tasks tasks{MakeTask(10, 10.0, 0), MakeTask(1, 1.0, 0),
              MakeTask(1, 1.0, 0)};
  SimulationResult r = SimulateCluster(tasks, config);
  EXPECT_GT(r.Skew(), 1.5);
}

TEST(ClusterTest, CpuFactorScalesCompute) {
  ClusterConfig config;
  config.num_workers = 1;
  config.cost.cpu_speed_factor = 3.0;
  config.cost.network_latency_s = 0;
  config.cost.network_bandwidth_bytes_per_s = 1e18;
  Tasks tasks{MakeTask(1, 2.0, 0)};
  SimulationResult r = SimulateCluster(tasks, config);
  EXPECT_NEAR(r.makespan_seconds, 6.0, 1e-9);
}

TEST(ClusterTest, EmptyTaskListIsZero) {
  ClusterConfig config;
  SimulationResult r = SimulateCluster({}, config);
  EXPECT_EQ(r.makespan_seconds, 0.0);
  EXPECT_EQ(r.Skew(), 1.0);
  EXPECT_EQ(r.workers.size(), 10u);  // default worker count
}

TEST(ClusterTest, StragglerSlowsItsOwnTasksOnly) {
  ClusterConfig config;
  config.num_workers = 2;
  config.strategy = PartitionStrategy::kRoundRobin;
  config.cost.network_latency_s = 0;
  config.cost.network_bandwidth_bytes_per_s = 1e18;
  config.worker_slowdown = {1.0, 4.0};  // worker 1 is 4x slower
  Tasks tasks{MakeTask(1, 1.0, 0), MakeTask(1, 1.0, 0)};
  SimulationResult r = SimulateCluster(tasks, config);
  EXPECT_NEAR(r.workers[0].compute_seconds, 1.0, 1e-9);
  EXPECT_NEAR(r.workers[1].compute_seconds, 4.0, 1e-9);
  EXPECT_NEAR(r.makespan_seconds, 4.0, 1e-9);
  EXPECT_GT(r.Skew(), 1.5);
}

TEST(ClusterTest, HomogeneousSlowdownVectorMatchesEmpty) {
  ClusterConfig with, without;
  with.num_workers = without.num_workers = 3;
  with.worker_slowdown = {1.0, 1.0, 1.0};
  Tasks tasks(9, MakeTask(2, 2.0, 50));
  SimulationResult a = SimulateCluster(tasks, with);
  SimulationResult b = SimulateCluster(tasks, without);
  EXPECT_DOUBLE_EQ(a.makespan_seconds, b.makespan_seconds);
  EXPECT_DOUBLE_EQ(a.total_compute_seconds, b.total_compute_seconds);
}

TEST(ClusterTest, SlowdownVectorMustMatchWorkerCount) {
  ClusterConfig config;
  config.num_workers = 3;
  config.worker_slowdown = {1.0, 2.0};  // wrong size
  EXPECT_DEATH(SimulateCluster({MakeTask(1, 1, 0)}, config),
               "Check failed");
}

TEST(ClusterTest, ThreadsPerWorkerOverlapTasksWithinWorker) {
  // One worker, two equal tasks: serially 2s of compute, on two lanes 1s
  // (worker compute = busiest lane).
  ClusterConfig config;
  config.num_workers = 1;
  config.cost.network_latency_s = 0;
  config.cost.network_bandwidth_bytes_per_s = 1e18;
  Tasks tasks{MakeTask(1, 1.0, 0), MakeTask(1, 1.0, 0)};
  config.threads_per_worker = 1;
  SimulationResult serial = SimulateCluster(tasks, config);
  EXPECT_NEAR(serial.makespan_seconds, 2.0, 1e-9);
  config.threads_per_worker = 2;
  SimulationResult threaded = SimulateCluster(tasks, config);
  EXPECT_NEAR(threaded.makespan_seconds, 1.0, 1e-9);
  // The serial-equivalent total is unchanged: lanes overlap work, they
  // don't erase it.
  EXPECT_NEAR(threaded.total_compute_seconds, 2.0, 1e-9);
  // Uneven tasks: {3, 2, 2} on two lanes -> lanes get 3 and 2+2.
  Tasks uneven{MakeTask(3, 3.0, 0), MakeTask(2, 2.0, 0), MakeTask(2, 2.0, 0)};
  SimulationResult r = SimulateCluster(uneven, config);
  EXPECT_NEAR(r.makespan_seconds, 4.0, 1e-9);
}

TEST(ClusterTest, MoreThreadsNeverIncreaseMakespan) {
  Tasks tasks;
  for (int i = 0; i < 40; ++i) {
    tasks.push_back(MakeTask(1.0 + i % 5, 1.0 + i % 5, 0));
  }
  ClusterConfig config;
  config.num_workers = 4;
  config.cost.network_latency_s = 0;
  config.cost.network_bandwidth_bytes_per_s = 1e18;
  double prev = 1e300;
  for (int threads : {1, 2, 4, 8}) {
    config.threads_per_worker = threads;
    SimulationResult r = SimulateCluster(tasks, config);
    EXPECT_LE(r.makespan_seconds, prev + 1e-9);
    prev = r.makespan_seconds;
  }
}

TEST(ClusterTest, MoreWorkersNeverIncreaseMakespan) {
  Tasks tasks;
  for (int i = 0; i < 50; ++i) {
    tasks.push_back(MakeTask(1.0 + i % 7, 1.0 + i % 7, 100));
  }
  double prev = 1e300;
  for (int workers : {1, 2, 4, 8, 16}) {
    ClusterConfig config;
    config.num_workers = workers;
    SimulationResult r = SimulateCluster(tasks, config);
    EXPECT_LE(r.makespan_seconds, prev + 1e-9);
    prev = r.makespan_seconds;
  }
}

}  // namespace
}  // namespace mce::dist
