#include "obs/critical_path.h"

#include <algorithm>
#include <set>
#include <utility>

#include "obs/span_math.h"

namespace mce::obs {

namespace {

double Micros(int64_t us) { return static_cast<double>(us) * 1e-6; }

/// Dependency candidates of `cur` under the engine's DAG shape. Returns
/// indices into `spans`; empty = `cur` is a root.
std::vector<size_t> Dependencies(const TaskSpan& cur,
                                 std::span<const TaskSpan> spans) {
  std::vector<size_t> deps;
  auto collect = [&](auto&& pred) {
    for (size_t i = 0; i < spans.size(); ++i) {
      if (pred(spans[i])) deps.push_back(i);
    }
  };
  switch (cur.kind) {
    case SpanKind::kReduce:
      break;  // the prepass is the run's root
    case SpanKind::kDecompose:
      if (cur.level == 0) {
        collect([](const TaskSpan& s) { return s.kind == SpanKind::kReduce; });
      } else {
        collect([&](const TaskSpan& s) {
          return s.kind == SpanKind::kDecompose && s.level == cur.level - 1;
        });
      }
      break;
    case SpanKind::kBlock:
    case SpanKind::kBlockShard:
    case SpanKind::kFallback:
      collect([&](const TaskSpan& s) {
        return s.kind == SpanKind::kDecompose && s.level == cur.level;
      });
      break;
    default:
      break;  // non-DAG kinds never appear here
  }
  return deps;
}

}  // namespace

bool IsDagTask(SpanKind kind) {
  switch (kind) {
    case SpanKind::kDecompose:
    case SpanKind::kBlock:
    case SpanKind::kBlockShard:
    case SpanKind::kFallback:
    case SpanKind::kReduce:
      return true;
    default:
      return false;
  }
}

TaskSpan TaskSpanFromEvent(const TraceEvent& e) {
  TaskSpan s;
  s.kind = e.kind;
  s.level = e.level;
  s.index = e.index;
  s.begin_us = e.begin_us;
  s.end_us = e.end_us;
  // Recording-thread lanes are not identifiable from an event, and the
  // DAG math never distinguishes them; synthetic lanes are kept.
  s.lane_pid = e.lane_tid >= 0 ? e.lane_pid : 0;
  s.lane_tid = e.lane_tid >= 0 ? e.lane_tid : 0;
  s.cost = e.cost;
  s.prof = e.prof;
  switch (e.kind) {
    case SpanKind::kBlock:
      s.cliques = e.args[3];
      break;
    case SpanKind::kBlockShard:
    case SpanKind::kFallback:
    case SpanKind::kReduce:
      s.cliques = e.args[2];
      break;
    default:
      break;
  }
  return s;
}

std::vector<TaskSpan> TaskSpansFromEvents(
    std::span<const TraceEvent> events) {
  std::vector<TaskSpan> out;
  for (const TraceEvent& e : events) {
    if (IsDagTask(e.kind)) out.push_back(TaskSpanFromEvent(e));
  }
  return out;
}

CriticalPathResult ComputeCriticalPath(std::span<const TaskSpan> spans) {
  CriticalPathResult result;
  size_t sink = spans.size();
  int64_t min_begin = 0, max_end = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!IsDagTask(spans[i].kind)) continue;
    if (sink == spans.size()) {
      min_begin = spans[i].begin_us;
      max_end = spans[i].end_us;
      sink = i;
    } else {
      min_begin = std::min(min_begin, spans[i].begin_us);
      if (spans[i].end_us > max_end) {
        max_end = spans[i].end_us;
        sink = i;
      }
    }
  }
  if (sink == spans.size()) return result;  // no DAG tasks at all
  result.wall_seconds = Micros(max_end - min_begin);

  // Walk backwards from the sink. `frontier` is the earliest instant the
  // chain has explained so far; each predecessor contributes the part of
  // its span before the frontier (exclusive attribution — overlapping
  // pipeline stages are not double-counted) plus any scheduling gap
  // between its end and the frontier.
  std::vector<CriticalPathEntry> reverse_path;
  size_t cur = sink;
  int64_t frontier = spans[sink].begin_us;
  reverse_path.push_back(
      CriticalPathEntry{sink, spans[sink].Seconds(), 0.0});
  // Level strictly decreases along decompose edges and every other edge
  // moves toward the decompose chain, so the walk terminates; the visited
  // set is a guard against malformed (cyclic-looking) inputs.
  std::set<size_t> visited{sink};
  while (true) {
    const std::vector<size_t> deps = Dependencies(spans[cur], spans);
    size_t best = spans.size();
    for (size_t d : deps) {
      if (visited.count(d)) continue;
      if (best == spans.size() || spans[d].end_us > spans[best].end_us) {
        best = d;
      }
    }
    if (best == spans.size()) break;  // root reached
    const TaskSpan& pred = spans[best];
    const double gap =
        pred.end_us < frontier ? Micros(frontier - pred.end_us) : 0.0;
    const int64_t clipped_end = std::min(pred.end_us, frontier);
    const double contribution =
        clipped_end > pred.begin_us ? Micros(clipped_end - pred.begin_us)
                                    : 0.0;
    reverse_path.back().wait_seconds = gap;
    reverse_path.push_back(CriticalPathEntry{best, contribution, 0.0});
    frontier = std::min(frontier, pred.begin_us);
    visited.insert(best);
    cur = best;
  }

  result.path.assign(reverse_path.rbegin(), reverse_path.rend());
  for (const CriticalPathEntry& entry : result.path) {
    result.span_seconds += entry.seconds;
    result.wait_seconds += entry.wait_seconds;
  }
  result.coverage =
      result.wall_seconds > 0
          ? (result.span_seconds + result.wait_seconds) / result.wall_seconds
          : 0.0;
  return result;
}

std::vector<Straggler> RankStragglersBySeconds(
    std::span<const TaskSpan> spans, size_t k) {
  std::vector<Straggler> all;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!IsDagTask(spans[i].kind)) continue;
    all.push_back(Straggler{i, spans[i].Seconds(), spans[i].cost, 0.0});
  }
  std::sort(all.begin(), all.end(), [](const Straggler& a,
                                       const Straggler& b) {
    if (a.seconds != b.seconds) return a.seconds > b.seconds;
    return a.span < b.span;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

std::vector<Straggler> RankStragglersByDeviation(
    std::span<const TaskSpan> spans, size_t k) {
  double total_seconds = 0, total_cost = 0;
  for (const TaskSpan& s : spans) {
    if (s.cost <= 0) continue;
    total_seconds += s.Seconds();
    total_cost += s.cost;
  }
  if (total_cost <= 0 || total_seconds <= 0) return {};
  const double alpha = total_seconds / total_cost;  // seconds per cost unit

  std::vector<Straggler> all;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].cost <= 0) continue;
    Straggler s;
    s.span = i;
    s.seconds = spans[i].Seconds();
    s.predicted_cost = spans[i].cost;
    s.deviation = s.seconds / (alpha * s.predicted_cost);
    all.push_back(s);
  }
  std::sort(all.begin(), all.end(), [](const Straggler& a,
                                       const Straggler& b) {
    if (a.deviation != b.deviation) return a.deviation > b.deviation;
    return a.span < b.span;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

std::vector<LevelIdle> AttributeIdle(std::span<const TaskSpan> spans) {
  std::set<std::pair<int, int>> lanes;
  uint32_t max_level = 0;
  bool any = false;
  for (const TaskSpan& s : spans) {
    if (!IsDagTask(s.kind)) continue;
    lanes.insert({s.lane_pid, s.lane_tid});
    if (s.kind != SpanKind::kReduce) {
      max_level = std::max(max_level, s.level);
      any = true;
    }
  }
  if (!any) return {};
  const int workers = static_cast<int>(lanes.size());

  std::vector<LevelIdle> out;
  for (uint32_t level = 0; level <= max_level; ++level) {
    std::vector<TimeRange> ranges;
    double busy = 0;
    for (const TaskSpan& s : spans) {
      const bool analysis = s.kind == SpanKind::kBlock ||
                            s.kind == SpanKind::kBlockShard ||
                            s.kind == SpanKind::kFallback;
      if (!analysis || s.level != level) continue;
      ranges.push_back(TimeRange{Micros(s.begin_us), Micros(s.end_us)});
      busy += s.Seconds();
    }
    LevelIdle li;
    li.level = level;
    li.workers = workers;
    li.busy_seconds = busy;
    const IdleSplit split = SplitIdle(ranges, busy, workers);
    li.idle_seconds = split.idle_seconds;
    li.barrier_idle_seconds = split.barrier_idle_seconds;
    out.push_back(li);
  }
  return out;
}

}  // namespace mce::obs
