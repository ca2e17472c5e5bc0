// Critical-path and attribution analysis over recorded task spans.
//
// The engine's task DAG is known by construction (DESIGN.md §7): the
// reduce prepass runs first, DecomposeTask(L) depends on DecomposeTask
// (L-1) (it is submitted right after Cut(L-1)), every BlockTask /
// BlockShardTask / FallbackTask of level L depends on DecomposeTask(L).
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
//   * per-level idle attribution via obs::SplitIdle — parallelism
//     shortfall vs. task-graph barrier waits.
//
// Pool idle, admission stalls, spill flushes, and simulated-cluster
// placements are observability spans, not DAG tasks; they are excluded
// from the DAG, the wall hull, and the path.

#ifndef MCE_OBS_CRITICAL_PATH_H_
#define MCE_OBS_CRITICAL_PATH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "obs/perf_counters.h"
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
  CounterDelta prof;

  double Seconds() const {
    return end_us > begin_us
               ? static_cast<double>(end_us - begin_us) * 1e-6
               : 0.0;
  }
};

/// True for kinds that are nodes of the task DAG (decompose, block,
/// shard, fallback, reduce).
bool IsDagTask(SpanKind kind);

/// The TaskSpan of one DAG task event — the one place a span's clique
/// count is read out of its args. Cliques count once, at the span that
/// enumerated them: a block or shard its enumerated cliques (before the
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

/// Idle attribution of one recursion level (see obs::SplitIdle).
struct LevelIdle {
  uint32_t level = 0;
  int workers = 0;             // distinct lanes observed run-wide
  double busy_seconds = 0;     // summed analysis span durations
  double idle_seconds = 0;     // parallelism shortfall within the level
  double barrier_idle_seconds = 0;  // parked at task-graph boundaries
};

/// Splits every level's idle capacity into starvation vs. barrier waits,
/// using the level's block/shard/fallback spans as the busy set
/// and the run-wide distinct lane count as the worker count.
std::vector<LevelIdle> AttributeIdle(std::span<const TaskSpan> spans);

}  // namespace mce::obs

#endif  // MCE_OBS_CRITICAL_PATH_H_
