// Aggregated, user-facing statistics of a FindMaxCliques run.
//
// These are the quantities the paper's evaluation plots: clique counts and
// average sizes split by origin (feasible-block cliques vs hub-only
// cliques, the white/gray bars of Figures 9-10), the hub share among the
// largest cliques (Figure 11), per-phase timings (Figures 7-8), and the
// number of first-level iterations (Section 6.2). RunStats is a view: it
// holds only what it derives from the result; the reduction, memory,
// progress and profile telemetry stay on the result (StreamingStats).

#ifndef MCE_CORE_RUN_STATS_H_
#define MCE_CORE_RUN_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "decomp/find_max_cliques.h"

namespace mce {

struct RunStats {
  uint64_t total_cliques = 0;
  /// Cliques produced by level-0 feasible blocks (white bars).
  uint64_t feasible_cliques = 0;
  /// Cliques consisting of hub nodes only, i.e. from recursion levels >= 1
  /// (gray bars).
  uint64_t hub_cliques = 0;

  size_t max_clique_size = 0;
  double avg_clique_size = 0;
  double avg_feasible_clique_size = 0;
  double avg_hub_clique_size = 0;

  size_t num_levels = 0;
  bool used_fallback = false;
  uint64_t total_blocks = 0;
  double decompose_seconds = 0;
  double analyze_seconds = 0;
  /// Cross-level pipelining achieved by the executor: wall-clock seconds
  /// during which a level's decomposition overlapped the previous level's
  /// analysis, summed over levels (0 on the serial executor).
  double overlap_seconds = 0;
  /// Aggregate work-starved worker idle time inside the analyze phases,
  /// summed over levels (waits at level boundaries are excluded).
  double idle_seconds = 0;
  /// Aggregate worker capacity spent parked at inter-level task-graph
  /// boundaries, summed over levels (LevelStats::barrier_idle_seconds).
  double barrier_idle_seconds = 0;
  /// End-to-end pipeline wall time as measured by MaxCliqueFinder::Find
  /// (0 when the stats were derived outside a timed entry point). The
  /// number mce_perf_diff compares across runs.
  double wall_seconds = 0;
  /// Analysis-phase worker utilization in (0, 1]: the serial-equivalent
  /// block work divided by the worker capacity of the analyze phases
  /// (busiest worker's time x workers, summed over levels). 0 when the
  /// run produced no block work.
  double utilization = 0;
};

/// Derives RunStats from a pipeline result.
RunStats ComputeRunStats(const decomp::FindMaxCliquesResult& result);

/// The one-line human summary of a run: the counts and timings of
/// `stats`, then the progress[…], profile[…], reduce[…] and mem[…]
/// segments of `result` when that telemetry is on.
std::string RunSummaryLine(const RunStats& stats,
                           const decomp::StreamingStats& result);

/// Among the `k` largest cliques (LargestCliqueIndices: ties broken by
/// clique content, then by index), the fraction that are hub-only (origin
/// level >= 1) — Figure 11's gray share. Returns 0 when there are no
/// cliques or `k` is 0.
double HubShareOfLargestCliques(const decomp::FindMaxCliquesResult& result,
                                size_t k);

}  // namespace mce

#endif  // MCE_CORE_RUN_STATS_H_
