#include "core/run_stats.h"

#include <algorithm>
#include <sstream>

#include "core/clique_analysis.h"
#include "util/check.h"

namespace mce {

std::string RunSummaryLine(const RunStats& stats,
                           const decomp::StreamingStats& result) {
  std::ostringstream os;
  os << "cliques=" << stats.total_cliques
     << " (feasible=" << stats.feasible_cliques
     << ", hub-only=" << stats.hub_cliques << ")"
     << " max_size=" << stats.max_clique_size
     << " avg_size=" << stats.avg_clique_size
     << " levels=" << stats.num_levels << " blocks=" << stats.total_blocks
     << " decompose_s=" << stats.decompose_seconds
     << " analyze_s=" << stats.analyze_seconds
     << " overlap_s=" << stats.overlap_seconds
     << " idle_s=" << stats.idle_seconds
     << " barrier_idle_s=" << stats.barrier_idle_seconds;
  if (stats.wall_seconds > 0) os << " wall_s=" << stats.wall_seconds;
  if (stats.utilization > 0) os << " util=" << stats.utilization;
  const obs::ProgressAccounting& progress = result.progress;
  if (progress.enabled) {
    os << " progress[cost=" << progress.completed_cost << "/"
       << progress.predicted_cost
       << " eta_err_s=" << progress.mean_abs_eta_error_seconds << "]";
  }
  const obs::ProfileStats& profile = result.profile;
  if (profile.enabled) {
    os << " profile[" << (profile.hardware ? "hw" : "sw")
       << " spans=" << profile.total.spans
       << " cycles=" << profile.total.counters.cycles
       << " ipc=" << profile.total.Ipc() << "]";
  }
  const reduce::ReductionStats& reduction = result.reduction;
  if (reduction.enabled) {
    os << " reduce[v=" << reduction.vertices_removed
       << " e=" << reduction.edges_removed
       << " trivial=" << reduction.trivial_cliques
       << " rounds=" << reduction.rounds << "]";
  }
  const decomp::MemoryStats& memory = result.memory;
  if (memory.budget_bytes > 0 || memory.spill_chunks > 0) {
    os << " mem[peak=" << memory.peak_tracked_bytes
       << " budget=" << memory.budget_bytes
       << " spill_chunks=" << memory.spill_chunks
       << " spill_bytes=" << memory.spill_bytes
       << " stalls=" << memory.admission_stalls << "]";
  }
  if (stats.used_fallback) os << " [fallback]";
  return os.str();
}

RunStats ComputeRunStats(const decomp::FindMaxCliquesResult& result) {
  MCE_CHECK_EQ(result.cliques.size(), result.origin_level.size());
  RunStats s;
  s.total_cliques = result.cliques.size();
  s.num_levels = result.levels.size();
  s.used_fallback = result.used_fallback;

  uint64_t total_size = 0, feasible_size = 0, hub_size = 0;
  for (size_t i = 0; i < result.cliques.size(); ++i) {
    const size_t size = result.cliques.cliques()[i].size();
    total_size += size;
    s.max_clique_size = std::max(s.max_clique_size, size);
    if (result.origin_level[i] == 0) {
      ++s.feasible_cliques;
      feasible_size += size;
    } else {
      ++s.hub_cliques;
      hub_size += size;
    }
  }
  if (s.total_cliques > 0) {
    s.avg_clique_size = static_cast<double>(total_size) / s.total_cliques;
  }
  if (s.feasible_cliques > 0) {
    s.avg_feasible_clique_size =
        static_cast<double>(feasible_size) / s.feasible_cliques;
  }
  if (s.hub_cliques > 0) {
    s.avg_hub_clique_size = static_cast<double>(hub_size) / s.hub_cliques;
  }
  double block_seconds = 0;
  double capacity_seconds = 0;
  for (const decomp::LevelStats& level : result.levels) {
    s.total_blocks += level.blocks;
    s.decompose_seconds += level.decompose_seconds;
    s.analyze_seconds += level.analyze_seconds;
    s.overlap_seconds += level.overlap_seconds;
    s.idle_seconds += level.idle_seconds;
    s.barrier_idle_seconds += level.barrier_idle_seconds;
    block_seconds += level.block_seconds;
    capacity_seconds +=
        level.busiest_worker_seconds * std::max(1u, level.analyze_threads);
  }
  // Achieved analysis utilization: serial-equivalent work over the worker
  // capacity spanned by the busiest worker, per level. 1.0 means every
  // worker was busy for exactly as long as the busiest one.
  if (capacity_seconds > 0) s.utilization = block_seconds / capacity_seconds;
  return s;
}

double HubShareOfLargestCliques(const decomp::FindMaxCliquesResult& result,
                                size_t k) {
  const std::vector<size_t> top = LargestCliqueIndices(result.cliques, k);
  if (top.empty()) return 0.0;
  size_t hub = 0;
  for (size_t i : top) {
    if (result.origin_level[i] >= 1) ++hub;
  }
  return static_cast<double>(hub) / static_cast<double>(top.size());
}

}  // namespace mce
