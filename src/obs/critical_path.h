// Critical-path and attribution analysis over recorded task spans.
//
// The engine's task DAG is known by construction (DESIGN.md §7): the
// reduce prepass runs first, DecomposeTask(L) depends on DecomposeTask
// (L-1) (it is submitted right after Cut(L-1)), every BlockTask /
// FallbackTask of level L depends on DecomposeTask(L).
// This module reconstructs that DAG from a span list — recorded
// TraceEvents or events parsed back out of a Chrome-trace file — and
// computes:
//
//   * the critical path: the dependency chain ending at the last task to
//     finish, walked backwards picking the latest-finishing predecessor
//     at every step. Each entry carries its *exclusive* contribution to
//     the path timeline (spans clipped where they overlap their
//     successor, e.g. DecomposeTask(L+1) starting inside DecomposeTask
//     (L)) plus the scheduling gap to its successor, so contributions +
//     waits telescope to exactly (last end − earliest path begin);
//   * stragglers: top-K spans by measured duration, and by deviation
//     from the decision::EstimateBlockCost prediction (the cost model's
//     measured error signal);
//   * the per-level fold (LevelFold) of every LevelStats field, the one
//     the executors run live, so a trace re-folds to the run's stats.
//
// Pool idle, admission stalls, spill flushes, and simulated-cluster
// placements are observability spans, not DAG tasks; they are excluded
// from the DAG, the wall hull, and the path.

#ifndef MCE_OBS_CRITICAL_PATH_H_
#define MCE_OBS_CRITICAL_PATH_H_

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "obs/perf_counters.h"
#include "obs/span_math.h"
#include "obs/trace.h"

namespace mce::obs {

/// One task occurrence in the analyzed run.
struct TaskSpan {
  SpanKind kind = SpanKind::kBlock;
  uint32_t level = 0;
  uint64_t index = 0;   // block index within the level
  int64_t begin_us = 0;
  int64_t end_us = 0;
  int lane_pid = 0;     // display lane the span ran on
  int lane_tid = 0;
  double cost = 0;      // EstimateBlockCost prediction; 0 = none
  uint64_t cliques = 0;
  uint64_t kept = 0;    // analysis spans: survivors of the per-clique step
  // DecomposeTask: the level graph and its cut.
  uint64_t nodes = 0, edges = 0, feasible = 0, hubs = 0;
  CounterDelta prof;

  double Seconds() const {
    return end_us > begin_us
               ? static_cast<double>(end_us - begin_us) * 1e-6
               : 0.0;
  }
};

/// True for kinds that are nodes of the task DAG (decompose, block,
/// fallback, reduce).
bool IsDagTask(SpanKind kind);

/// True for a level's analysis kinds: block and fallback.
bool IsAnalysisTask(SpanKind kind);

/// The TaskSpan of one DAG task event — the one place a span's args are
/// read out by kind. Cliques count once, at the span that
/// enumerated them: a block its enumerated cliques (before the
/// Lemma-1 filter it runs), the fallback its enumerated cliques, the
/// reduce prepass its trivial cliques. Lane assignment mirrors
/// ToChromeTraceJson for synthetic lanes; every other event lands on lane
/// (0, 0).
TaskSpan TaskSpanFromEvent(const TraceEvent& event);

/// TaskSpanFromEvent over the DAG task kinds of `events`, in order.
std::vector<TaskSpan> TaskSpansFromEvents(std::span<const TraceEvent> events);

struct CriticalPathEntry {
  size_t span = 0;         // index into the input span list
  double seconds = 0;      // exclusive contribution to the path timeline
  double wait_seconds = 0; // gap between this span and its successor
};

struct CriticalPathResult {
  /// Root-first (earliest task first) chain ending at the last finisher.
  std::vector<CriticalPathEntry> path;
  double span_seconds = 0;  // sum of path contributions
  double wait_seconds = 0;  // sum of dependency gaps along the path
  double wall_seconds = 0;  // hull of all DAG task spans
  /// (span_seconds + wait_seconds) / wall_seconds. 1.0 when the path
  /// reaches back to the run's first task, which the dependency rules
  /// guarantee for well-formed traces.
  double coverage = 0;
};

CriticalPathResult ComputeCriticalPath(std::span<const TaskSpan> spans);

struct Straggler {
  size_t span = 0;
  double seconds = 0;
  double predicted_cost = 0;  // 0 when the span carried no prediction
  /// seconds / (alpha * predicted_cost), where alpha calibrates cost
  /// units to seconds over the whole run; 0 without a prediction.
  double deviation = 0;
};

/// Top-`k` DAG task spans by measured duration, longest first.
std::vector<Straggler> RankStragglersBySeconds(
    std::span<const TaskSpan> spans, size_t k);

/// Top-`k` predicted spans by deviation from the cost model, worst
/// (most under-predicted) first. alpha = sum(seconds) / sum(cost) over
/// every span with a prediction, so deviation 1.0 = exactly as predicted.
std::vector<Straggler> RankStragglersByDeviation(
    std::span<const TaskSpan> spans, size_t k);

/// Per-recursion-level telemetry (drives Figures 7-11), folded from the
/// level's task spans by LevelFold (definitions: DESIGN.md §7). D is the
/// level's DecomposeTask span, A its analysis spans, W analyze_threads;
/// self(D) is D's window minus the level's spans nested in it on its lane
/// (the serial walk runs its analysis inside D).
struct LevelStats {
  uint64_t num_nodes = 0;       // |G_l|; these four come from D's args
  uint64_t num_edges = 0;
  uint64_t feasible = 0;        // |N_f|
  uint64_t hubs = 0;            // |N_h|
  uint64_t blocks = 0;          // one BlockTask span each
  uint64_t cliques = 0;         // cliques emitted by this level's blocks
                                // (before the maximality filter)
  double decompose_seconds = 0; // self(D)
  double analyze_seconds = 0;   // |union(A)|
  /// Σ|A| (the serial-equivalent work) and the largest Σ|A| of one lane:
  /// block_seconds / (busiest_worker_seconds · W) is the level's worker
  /// utilization, in (0, 1].
  double block_seconds = 0;
  double busiest_worker_seconds = 0;
  /// W: the pool size, or 1 on the serial executor and on a fallback
  /// level.
  uint32_t analyze_threads = 1;
  /// |D ∩ the union of earlier levels' hull(A)|: decomposition pipelined
  /// under earlier analysis.
  double overlap_seconds = 0;
  /// max(0, W·|union(D ∪ A)| − self(D) − Σ|A|): the level's own idle
  /// capacity; D counts as busy.
  double idle_seconds = 0;
  /// W·(|hull(D ∪ A)| − |union(D ∪ A)|): lanes parked at a cross-level
  /// boundary while none of the level's tasks ran. This and the two above
  /// are exactly 0 on the serial executor.
  double barrier_idle_seconds = 0;
};

/// The one fold from task spans to LevelStats, run live by
/// exec::RunReporter and over a recorded trace by mce_trace_analyze.
/// Spans arrive in any order; lanes are (lane_pid, lane_tid), one per
/// thread. Not thread-safe.
class LevelFold {
 public:
  /// Folds one DAG span. A ReduceTask belongs to no level.
  void Add(const TaskSpan& span);

  /// Level `level`'s stats with W = `workers`, once all its spans are in;
  /// drops its spans. Levels finish in order (overlap reads the earlier
  /// levels' analysis hulls).
  LevelStats Finish(uint32_t level, uint32_t workers);

 private:
  struct Window {
    TimeRange range;  // in microseconds
    std::pair<int, int> lane;
  };
  struct Level {
    LevelStats stats;  // the counts, as spans arrive
    Window decompose;
    std::vector<Window> analysis;
    bool fallback = false;
  };

  std::map<uint32_t, Level> levels_;
  std::vector<TimeRange> analysis_hulls_;  // of the finished levels
};

/// LevelFold over a whole run: one LevelStats per level, in level order,
/// each with W = `workers` (1 on a fallback level).
std::vector<LevelStats> FoldLevels(std::span<const TaskSpan> spans,
                                   uint32_t workers);

}  // namespace mce::obs

#endif  // MCE_OBS_CRITICAL_PATH_H_
