#include "dist/cluster.h"

#include <algorithm>

#include "util/check.h"

namespace mce::dist {

double SimulationResult::Skew() const {
  if (workers.empty()) return 1.0;
  double max_load = 0;
  double total = 0;
  for (const WorkerTimeline& w : workers) {
    max_load = std::max(max_load, w.TotalSeconds());
    total += w.TotalSeconds();
  }
  double mean = total / static_cast<double>(workers.size());
  return mean > 0 ? max_load / mean : 1.0;
}

double SimulationResult::Speedup() const {
  return makespan_seconds > 0 ? total_compute_seconds / makespan_seconds : 1.0;
}

double SimulationResult::ComputeSpeedup() const {
  double max_compute = 0;
  for (const WorkerTimeline& w : workers) {
    max_compute = std::max(max_compute, w.compute_seconds);
  }
  return max_compute > 0 ? total_compute_seconds / max_compute : 1.0;
}

Status ValidateClusterConfig(const ClusterConfig& config) {
  if (config.num_workers < 1) {
    return Status::InvalidArgument("cluster.num_workers must be >= 1");
  }
  if (config.threads_per_worker < 1) {
    return Status::InvalidArgument("cluster.threads_per_worker must be >= 1");
  }
  if (!config.worker_slowdown.empty() &&
      config.worker_slowdown.size() !=
          static_cast<size_t>(config.num_workers)) {
    return Status::InvalidArgument(
        "cluster.worker_slowdown must have num_workers entries");
  }
  for (double s : config.worker_slowdown) {
    if (!(s > 0.0)) {
      return Status::InvalidArgument(
          "cluster.worker_slowdown entries must be > 0");
    }
  }
  return Status::OK();
}

SimulationResult SimulateCluster(
    const std::vector<decomp::BlockTaskRecord>& tasks,
    const ClusterConfig& config) {
  MCE_CHECK(ValidateClusterConfig(config).ok());
  std::vector<double> estimates;
  estimates.reserve(tasks.size());
  for (const decomp::BlockTaskRecord& t : tasks) {
    estimates.push_back(t.estimated_cost);
  }

  SimulationResult result;
  result.assignment =
      AssignTasks(estimates, config.num_workers, config.strategy, config.seed);
  result.workers.assign(config.num_workers, WorkerTimeline{});

  // Intra-worker thread loads: each worker's tasks go to its least-loaded
  // thread in arrival order; the worker's compute time is its busiest
  // thread's load (== the plain task sum when threads_per_worker is 1).
  std::vector<std::vector<double>> threads(
      config.num_workers,
      std::vector<double>(config.threads_per_worker, 0.0));

  // Blocks stream to each worker over one connection: the per-message
  // latency is paid once per busy worker, bytes are paid per task.
  result.task_lane.reserve(tasks.size());
  result.task_start_seconds.reserve(tasks.size());
  result.task_compute_seconds.reserve(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    const decomp::BlockTaskRecord& t = tasks[i];
    const int worker = result.assignment[i];
    WorkerTimeline& w = result.workers[worker];
    const double slowdown = config.worker_slowdown.empty()
                                ? 1.0
                                : config.worker_slowdown[worker];
    const double compute = config.cost.ComputeSeconds(t.seconds) * slowdown;
    const double comm = static_cast<double>(t.bytes) /
                        config.cost.network_bandwidth_bytes_per_s;
    std::vector<double>& lanes = threads[worker];
    const auto lane = std::min_element(lanes.begin(), lanes.end());
    result.task_lane.push_back(worker * config.threads_per_worker +
                               static_cast<int>(lane - lanes.begin()));
    result.task_start_seconds.push_back(*lane);
    result.task_compute_seconds.push_back(compute);
    *lane += compute;
    w.comm_seconds += comm;
    w.bytes_received += t.bytes;
    ++w.tasks;
    result.total_compute_seconds += compute;
    result.total_comm_seconds += comm;
  }
  for (int worker = 0; worker < config.num_workers; ++worker) {
    result.workers[worker].compute_seconds =
        *std::max_element(threads[worker].begin(), threads[worker].end());
  }
  for (WorkerTimeline& w : result.workers) {
    if (w.tasks > 0) {
      w.comm_seconds += config.cost.network_latency_s;
      result.total_comm_seconds += config.cost.network_latency_s;
    }
  }
  for (const WorkerTimeline& w : result.workers) {
    result.makespan_seconds = std::max(result.makespan_seconds,
                                       w.TotalSeconds());
  }
  return result;
}

}  // namespace mce::dist
