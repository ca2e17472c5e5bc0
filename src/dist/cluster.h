// Cluster simulation: turns a list of measured block tasks into per-worker
// timelines under a cost model and a partitioning strategy.

#ifndef MCE_DIST_CLUSTER_H_
#define MCE_DIST_CLUSTER_H_

#include <cstdint>
#include <vector>

#include "decomp/find_max_cliques.h"
#include "dist/cost_model.h"
#include "dist/scheduler.h"
#include "util/status.h"

namespace mce::dist {

struct ClusterConfig {
  /// The paper's testbed has 10 machines.
  int num_workers = 10;
  /// Intra-worker parallelism: each simulated machine runs its assigned
  /// block tasks on this many threads (the paper's nodes have 4 CPUs x 8
  /// threads). Tasks are placed on a worker's least-loaded thread in
  /// arrival order; a worker's compute time is then its busiest thread
  /// rather than the sum over its tasks. 1 reproduces the serial-worker
  /// model.
  int threads_per_worker = 1;
  CostModel cost;
  PartitionStrategy strategy = PartitionStrategy::kGreedyLpt;
  /// Seed for hash partitioning.
  uint64_t seed = 7;
  /// Optional per-worker speed multipliers on compute time (1.0 = the
  /// cost model's base speed, 2.0 = half as fast — a straggler). Empty
  /// means homogeneous; otherwise must have num_workers entries. The
  /// paper's TORQUE testbed is time-shared, so heterogeneous load is the
  /// realistic regime ([38]'s skew analysis).
  std::vector<double> worker_slowdown;
};

/// InvalidArgument unless num_workers >= 1, threads_per_worker >= 1, and
/// worker_slowdown is empty or holds num_workers entries, each > 0.
Status ValidateClusterConfig(const ClusterConfig& config);

struct WorkerTimeline {
  double compute_seconds = 0;
  double comm_seconds = 0;
  uint64_t bytes_received = 0;
  uint64_t tasks = 0;

  double TotalSeconds() const { return compute_seconds + comm_seconds; }
};

struct SimulationResult {
  std::vector<WorkerTimeline> workers;
  std::vector<int> assignment;  // task -> worker
  /// Per-task placement detail, parallel to `assignment`: the global lane
  /// the task ran on (worker * threads_per_worker + thread), its start
  /// offset on that lane's compute timeline, and its simulated compute
  /// duration (slowdown applied). Lanes model compute only; communication
  /// is accounted per worker. These are the simulated-cluster timeline
  /// lanes of the trace export.
  std::vector<int> task_lane;
  std::vector<double> task_start_seconds;
  std::vector<double> task_compute_seconds;
  /// Wall-clock of the parallel phase: the busiest worker's total.
  double makespan_seconds = 0;
  /// Sum of compute over all tasks (the serial-equivalent time).
  double total_compute_seconds = 0;
  double total_comm_seconds = 0;

  /// Load skew: busiest worker / mean worker (1.0 = perfectly balanced).
  double Skew() const;
  /// total compute / makespan — achieved end-to-end speedup. Can drop
  /// below 1 when per-task communication latency dominates tiny tasks.
  double Speedup() const;
  /// total compute / busiest worker's compute — parallelization quality of
  /// the placement alone, always in [1, num_workers].
  double ComputeSpeedup() const;
};

/// Assigns `tasks` to workers and accumulates their timelines. Each task's
/// estimated_cost drives the placement, its measured seconds (scaled by
/// the cost model's CPU factor) its compute time, and its bytes the
/// shipping cost. `config` must pass ValidateClusterConfig.
SimulationResult SimulateCluster(
    const std::vector<decomp::BlockTaskRecord>& tasks,
    const ClusterConfig& config);

}  // namespace mce::dist

#endif  // MCE_DIST_CLUSTER_H_
