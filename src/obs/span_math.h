// Interval arithmetic over measured time spans.
//
// The level fold (obs::LevelFold) derives LevelStats — analyze, overlap
// and idle times — from the same begin/end spans the trace recorder gets,
// instead of keeping a second ad-hoc set of clocks. These helpers are the
// shared span math: hulls, clipped unions, and the decompose-vs-analysis
// overlap measure of DESIGN.md §7.

#ifndef MCE_OBS_SPAN_MATH_H_
#define MCE_OBS_SPAN_MATH_H_

#include <span>

namespace mce::obs {

/// A half-open wall-clock window [begin, end), in seconds on some common
/// monotonic timebase. Empty (or inverted) ranges have zero length.
struct TimeRange {
  double begin = 0;
  double end = 0;

  double Length() const { return end > begin ? end - begin : 0.0; }
  bool Empty() const { return end <= begin; }
};

/// Smallest range covering every non-empty input range; empty input (or
/// all-empty ranges) yields an empty range at 0.
TimeRange Hull(std::span<const TimeRange> ranges);

/// Total length of the union of the ranges (overlaps counted once).
double UnionLength(std::span<const TimeRange> ranges);

/// Length of `window ∩ (∪ ranges)`: how much of `window` is covered by at
/// least one of the (possibly mutually overlapping) ranges. This is the
/// overlap measure of LevelStats::overlap_seconds — a level's decompose
/// window intersected with the union of earlier levels' analysis windows.
double OverlapLength(const TimeRange& window,
                     std::span<const TimeRange> ranges);

/// Aggregate idle time of `workers` lanes across `window`: the capacity
/// workers * window.Length() minus `busy_seconds` of work performed inside
/// it, clamped at zero (LevelStats::idle_seconds).
double IdleLength(const TimeRange& window, double busy_seconds, int workers);

/// A level's idle capacity, attributed by cause (LevelStats idle_seconds /
/// barrier_idle_seconds).
struct IdleSplit {
  /// Work-starved capacity while at least one of the level's own tasks was
  /// running: workers * UnionLength(spans) - busy_seconds, clamped at 0 —
  /// the parallelism shortfall the level itself is responsible for.
  double idle_seconds = 0;
  /// Capacity across the hull's uncovered gaps — stretches where *none* of
  /// the level's tasks ran and its workers were parked at a task-graph
  /// boundary (waiting on another level's decompose or analysis, or on the
  /// delivery barrier): workers * (hull - union). Charging these waits
  /// to idle_seconds would blame the level that just ran out of work for
  /// time its neighbors own, skewing per-level utilization.
  double barrier_idle_seconds = 0;
};

/// Splits the capacity of `workers` lanes over the hull of `spans` into
/// intra-level idle and cross-boundary barrier idle. `busy_seconds` is the
/// work performed inside the spans (their summed lengths when they never
/// overlap per worker). IdleLength(Hull(spans), busy, workers) ==
/// idle_seconds + barrier_idle_seconds whenever busy <= workers * union.
IdleSplit SplitIdle(std::span<const TimeRange> spans, double busy_seconds,
                    int workers);

}  // namespace mce::obs

#endif  // MCE_OBS_SPAN_MATH_H_
