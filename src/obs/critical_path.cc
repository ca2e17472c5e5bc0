#include "obs/critical_path.h"

#include <algorithm>
#include <set>
#include <utility>

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
    case SpanKind::kFallback:
    case SpanKind::kReduce:
      return true;
    default:
      return false;
  }
}

bool IsAnalysisTask(SpanKind kind) {
  return kind == SpanKind::kBlock || kind == SpanKind::kFallback;
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
  s.kept = e.kept;
  switch (e.kind) {
    case SpanKind::kDecompose:
      s.nodes = e.args[0];
      s.edges = e.args[1];
      s.feasible = e.args[2];
      s.hubs = e.args[3];
      break;
    case SpanKind::kBlock:
      s.cliques = e.args[3];
      break;
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

void LevelFold::Add(const TaskSpan& span) {
  if (!IsDagTask(span.kind) || span.kind == SpanKind::kReduce) return;
  Level& level = levels_[span.level];
  // Microseconds held as doubles: every sum of them is exact, so the
  // serial walk's idle, barrier and overlap come out exactly 0.
  const Window window{TimeRange{static_cast<double>(span.begin_us),
                                static_cast<double>(span.end_us)},
                      {span.lane_pid, span.lane_tid}};
  if (span.kind == SpanKind::kDecompose) {
    level.decompose = window;
    level.stats.num_nodes = span.nodes;
    level.stats.num_edges = span.edges;
    level.stats.feasible = span.feasible;
    level.stats.hubs = span.hubs;
    return;
  }
  level.analysis.push_back(window);
  level.stats.cliques += span.cliques;
  // The m-core fallback enumerates the level graph itself: no block.
  if (span.kind == SpanKind::kFallback) {
    level.fallback = true;
  } else {
    ++level.stats.blocks;
  }
}

LevelStats LevelFold::Finish(uint32_t level_index, uint32_t workers) {
  const Level& level = levels_[level_index];
  LevelStats stats = level.stats;
  const Window& d = level.decompose;
  double total = 0, nested = 0, busiest = 0;
  std::map<std::pair<int, int>, double> lane_total;
  std::vector<TimeRange> ranges;
  for (const Window& a : level.analysis) {
    const double us = a.range.Length();
    total += us;
    busiest = std::max(busiest, lane_total[a.lane] += us);
    if (a.lane == d.lane && a.range.begin >= d.range.begin &&
        a.range.end <= d.range.end) {
      nested += us;
    }
    ranges.push_back(a.range);
  }
  const TimeRange hull = Hull(ranges);
  const double self = d.range.Length() - nested;
  stats.decompose_seconds = self * 1e-6;
  stats.analyze_seconds = UnionLength(ranges) * 1e-6;
  stats.block_seconds = total * 1e-6;
  stats.busiest_worker_seconds = busiest * 1e-6;
  stats.analyze_threads = level.fallback ? 1 : workers;
  stats.overlap_seconds = OverlapLength(d.range, analysis_hulls_) * 1e-6;
  ranges.push_back(d.range);
  const IdleSplit idle = SplitIdle(ranges, self + total,
                                   static_cast<int>(stats.analyze_threads));
  stats.idle_seconds = idle.idle_seconds * 1e-6;
  stats.barrier_idle_seconds = idle.barrier_idle_seconds * 1e-6;
  if (!hull.Empty()) analysis_hulls_.push_back(hull);
  levels_.erase(level_index);
  return stats;
}

std::vector<LevelStats> FoldLevels(std::span<const TaskSpan> spans,
                                   uint32_t workers) {
  LevelFold fold;
  uint32_t levels = 0;
  for (const TaskSpan& s : spans) {
    fold.Add(s);
    if (IsDagTask(s.kind) && s.kind != SpanKind::kReduce) {
      levels = std::max(levels, s.level + 1);
    }
  }
  std::vector<LevelStats> out;
  for (uint32_t level = 0; level < levels; ++level) {
    out.push_back(fold.Finish(level, workers));
  }
  return out;
}

}  // namespace mce::obs
