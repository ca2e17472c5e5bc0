#include "exec/cluster_executor.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "exec/task_graph.h"
#include "obs/trace.h"
#include "util/check.h"

namespace mce::exec {

SimulatedClusterExecutor::SimulatedClusterExecutor(
    dist::ClusterConfig config, std::unique_ptr<Executor> inner)
    : config_(std::move(config)), inner_(std::move(inner)) {
  MCE_CHECK(inner_ != nullptr);
}

decomp::StreamingStats SimulatedClusterExecutor::Run(
    const Graph& g, const decomp::FindMaxCliquesOptions& options,
    const decomp::LeveledCliqueCallback& emit) {
  levels_.clear();
  // The inner executor delivers records on the calling thread in block
  // order, so plain vectors suffice. The caller's observer (if any) still
  // sees every record.
  std::vector<std::vector<decomp::BlockTaskRecord>> tasks_per_level;
  decomp::FindMaxCliquesOptions inner_options = options;
  inner_options.block_observer =
      [&tasks_per_level, &options](const decomp::BlockTaskRecord& r) {
        if (tasks_per_level.size() <= r.level) {
          tasks_per_level.resize(r.level + 1);
        }
        tasks_per_level[r.level].push_back(r);
        if (options.block_observer) options.block_observer(r);
      };

  decomp::StreamingStats stats = inner_->Run(g, inner_options, emit);

  tasks_per_level.resize(stats.levels.size());
  for (size_t level = 0; level < stats.levels.size(); ++level) {
    LevelSimulation ls;
    ls.simulation = dist::SimulateCluster(tasks_per_level[level], config_);
    // Decomposition: the level's edge file is read from the shared FS and
    // the CUT+BLOCKS work parallelizes across workers.
    const decomp::LevelStats& level_stats = stats.levels[level];
    const uint64_t level_bytes =
        level_stats.num_edges * 2 * sizeof(NodeId) +
        level_stats.num_nodes * sizeof(NodeId);
    ls.decompose_seconds =
        config_.cost.DiskSeconds(level_bytes) +
        config_.cost.ComputeSeconds(level_stats.decompose_seconds) /
            config_.num_workers;
    levels_.push_back(std::move(ls));
  }

  // Replay the simulated placement as synthetic trace lanes: one lane per
  // (worker, thread) slot under the "mce cluster sim" process, levels laid
  // out end to end (each level's lanes start after its simulated
  // decompose phase). Zero-cost when no recorder is resolved.
  if (obs::TraceRecorder* trace = ResolveTrace(options)) {
    int64_t base_us = obs::NowMicros();
    for (size_t level = 0; level < levels_.size(); ++level) {
      const LevelSimulation& ls = levels_[level];
      base_us += static_cast<int64_t>(ls.decompose_seconds * 1e6);
      const dist::SimulationResult& sim = ls.simulation;
      for (size_t i = 0; i < sim.task_lane.size(); ++i) {
        obs::TraceEvent e;
        e.begin_us =
            base_us + static_cast<int64_t>(sim.task_start_seconds[i] * 1e6);
        e.end_us = e.begin_us +
                   static_cast<int64_t>(sim.task_compute_seconds[i] * 1e6);
        e.kind = obs::SpanKind::kSimBlock;
        e.level = static_cast<uint32_t>(level);
        e.index = i;
        e.args[0] = static_cast<uint64_t>(sim.assignment[i]);
        e.args[1] = static_cast<uint64_t>(sim.task_lane[i]);
        e.args[2] = tasks_per_level[level][i].cliques;
        e.lane_pid = 1;
        e.lane_tid = sim.task_lane[i];
        trace->Record(e);
      }
      base_us += static_cast<int64_t>(sim.makespan_seconds * 1e6);
    }
  }
  return stats;
}

ClusterSummary SimulatedClusterExecutor::Summary() const {
  ClusterSummary s;
  s.workers = config_.num_workers;
  double analysis_makespan = 0;
  double serial = 0;
  double busiest = 0;
  for (const LevelSimulation& level : levels_) {
    const dist::SimulationResult& sim = level.simulation;
    s.makespan_seconds += level.decompose_seconds + sim.makespan_seconds;
    analysis_makespan += sim.makespan_seconds;
    serial += sim.total_compute_seconds;
    double level_busiest = 0;
    for (const dist::WorkerTimeline& w : sim.workers) {
      level_busiest = std::max(level_busiest, w.compute_seconds);
      s.bytes_shipped += w.bytes_received;
    }
    busiest += level_busiest;
    s.max_level_skew = std::max(s.max_level_skew, sim.Skew());
  }
  if (analysis_makespan > 0) s.analysis_speedup = serial / analysis_makespan;
  if (busiest > 0) s.compute_speedup = serial / busiest;
  return s;
}

}  // namespace mce::exec
