// SimulatedClusterExecutor: wraps an inner executor and feeds the real
// BlockTaskRecords it executes into the dist:: cluster scheduler — its
// collector sits in front of the caller's block_observer, so the simulated
// placement consumes the engine's own task stream. The algorithmic output
// (cliques, emission order, observer stream) is exactly the inner
// executor's; what this adds is one cluster simulation per recursion
// level plus the distributed decompose-cost model.

#ifndef MCE_EXEC_CLUSTER_EXECUTOR_H_
#define MCE_EXEC_CLUSTER_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "dist/cluster.h"
#include "exec/executor.h"

namespace mce::exec {

struct LevelSimulation {
  dist::SimulationResult simulation;
  /// Simulated distributed decomposition time for the level: the measured
  /// CUT+BLOCKS time divided across workers plus the shared-FS read of the
  /// level's edge data (Section 6.2 splits the input across machines).
  double decompose_seconds = 0;
};

/// Run-level aggregates over the per-level simulations.
struct ClusterSummary {
  int workers = 0;
  /// End-to-end simulated wall time: decomposition plus analysis
  /// makespans, summed over levels.
  double makespan_seconds = 0;
  /// Analysis-phase speedup including communication (may dip below 1 on
  /// workloads whose tasks are tiny relative to the network latency).
  double analysis_speedup = 1.0;
  /// Placement-quality speedup (compute only), in [1, workers].
  double compute_speedup = 1.0;
  double max_level_skew = 1.0;
  uint64_t bytes_shipped = 0;
};

class SimulatedClusterExecutor final : public Executor {
 public:
  SimulatedClusterExecutor(dist::ClusterConfig config,
                           std::unique_ptr<Executor> inner);

  decomp::StreamingStats Run(const Graph& g,
                             const decomp::FindMaxCliquesOptions& options,
                             const decomp::LeveledCliqueCallback& emit) override;

  /// One simulation per recursion level of the last Run, in level order
  /// (parallel to the returned stats.levels).
  const std::vector<LevelSimulation>& levels() const { return levels_; }

  /// The last Run's aggregates over levels().
  ClusterSummary Summary() const;

 private:
  dist::ClusterConfig config_;
  std::unique_ptr<Executor> inner_;
  std::vector<LevelSimulation> levels_;
};

}  // namespace mce::exec

#endif  // MCE_EXEC_CLUSTER_EXECUTOR_H_
