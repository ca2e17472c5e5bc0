// mce_trace_analyze — post-run critical-path / attribution analyzer for
// Chrome traces written by mce_cli --trace-out.
//
// The pipeline's task DAG is known by construction (DESIGN.md §7, §14):
// ReduceTask first, DecomposeTask(L) after DecomposeTask(L-1), and each
// Block/FallbackTask after its level's DecomposeTask. The tool
// parses the trace back into task spans (merging the B-event args with
// the counter args the E event carries under --perf-counters), rebuilds
// the DAG, and reports:
//
//   * per-kind and per-level counter attribution (cycles, IPC, miss
//     rates, ns/clique) — sums reproduce the run totals exactly;
//   * the critical path: the dependency chain ending at the last task to
//     finish, with each hop's exclusive seconds and scheduling wait;
//   * stragglers: top-K tasks by duration and by deviation from the
//     decision::EstimateBlockCost prediction recorded on the span;
//   * the per-level stats table: obs::FoldLevels over the spans, the fold
//     the executors run live, so it equals the run's --json "levels".
//
// usage: mce_trace_analyze <trace.json> [--top K]
//          [--collapsed out.txt]     (flamegraph.pl collapsed stacks)
//          [--speedscope out.json]   (speedscope evented profile)
//          [--require-critical-path] (exit 1 unless a critical path was
//                                     found whose spans + waits cover
//                                     the DAG wall time within 5%)
//
// Parses with tools/json_lite.h; the DAG math lives in the library
// (obs/critical_path.h) so tests can cross-check it on live recorders.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "json_lite.h"
#include "obs/critical_path.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace {

using json_lite::JsonParser;
using json_lite::JsonValue;
using mce::obs::CounterDelta;
using mce::obs::CounterSource;
using mce::obs::SpanKind;
using mce::obs::TaskSpan;

struct Options {
  std::string trace_path;
  size_t top = 5;
  std::string collapsed_path;
  std::string speedscope_path;
  bool require_critical_path = false;
};

/// One open or closed span as parsed from the trace; `name` is kept even
/// for non-DAG kinds so the flame exports can show idle/stall frames.
struct ParsedSpan {
  std::string name;
  int pid = 0;
  int tid = 0;
  int64_t begin_us = 0;
  int64_t end_us = 0;
  JsonValue args;       // B-event args (level, block, cost, cliques, ...)
  CounterDelta prof;    // E-event counter args, when present
};

uint64_t U64(const JsonValue& args, const char* key) {
  return static_cast<uint64_t>(args.NumberOr(key, 0));
}

/// Replays the trace's B/E events into closed spans. Events are grouped
/// per (pid, tid) lane and matched LIFO, mirroring how the exporter
/// emitted them (and how trace_check validates them).
bool ParseSpans(const JsonValue& root, std::vector<ParsedSpan>* out,
                std::string* error) {
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || !events->IsArray()) {
    *error = "no traceEvents array";
    return false;
  }
  std::map<std::pair<int, int>, std::vector<ParsedSpan>> open;
  for (const JsonValue& e : events->array) {
    if (!e.IsObject()) continue;
    const JsonValue* ph = e.Find("ph");
    if (ph == nullptr || !ph->IsString()) continue;
    const int pid = static_cast<int>(e.NumberOr("pid", 0));
    const int tid = static_cast<int>(e.NumberOr("tid", 0));
    const int64_t ts = static_cast<int64_t>(e.NumberOr("ts", 0));
    if (ph->string == "B") {
      ParsedSpan s;
      const JsonValue* name = e.Find("name");
      if (name != nullptr && name->IsString()) s.name = name->string;
      s.pid = pid;
      s.tid = tid;
      s.begin_us = ts;
      if (const JsonValue* args = e.Find("args"); args != nullptr) {
        s.args = *args;
      }
      open[{pid, tid}].push_back(std::move(s));
    } else if (ph->string == "E") {
      std::vector<ParsedSpan>& stack = open[{pid, tid}];
      if (stack.empty()) {
        *error = "unbalanced E event on lane (" + std::to_string(pid) + "," +
                 std::to_string(tid) + ")";
        return false;
      }
      ParsedSpan s = std::move(stack.back());
      stack.pop_back();
      s.end_us = ts;
      if (const JsonValue* args = e.Find("args");
          args != nullptr && args->IsObject()) {
        s.prof.cycles = U64(*args, "cycles");
        s.prof.instructions = U64(*args, "instructions");
        s.prof.cache_misses = U64(*args, "cache_misses");
        s.prof.branch_misses = U64(*args, "branch_misses");
        s.prof.task_clock_ns = U64(*args, "task_clock_ns");
        const JsonValue* prof = args->Find("prof");
        if (prof != nullptr && prof->IsString()) {
          s.prof.source = prof->string == "hw" ? CounterSource::kHardware
                                               : CounterSource::kSoftware;
        }
      }
      out->push_back(std::move(s));
    }
  }
  for (const auto& [lane, stack] : open) {
    if (!stack.empty()) {
      *error = "unclosed span '" + stack.back().name + "' on lane (" +
               std::to_string(lane.first) + "," +
               std::to_string(lane.second) + ")";
      return false;
    }
  }
  return true;
}

/// Maps the closed spans onto DAG TaskSpans, pulling level / index /
/// cost / clique and kept counts / the decompose's graph and cut out of
/// the kind-specific B args, as obs::TaskSpanFromEvent does for a live
/// event. Cliques count at the span that enumerated them.
std::vector<TaskSpan> ToTaskSpans(const std::vector<ParsedSpan>& spans) {
  std::vector<TaskSpan> out;
  for (const ParsedSpan& s : spans) {
    SpanKind kind;
    if (!mce::obs::SpanKindFromName(s.name, &kind)) continue;
    if (!mce::obs::IsDagTask(kind)) continue;
    TaskSpan t;
    t.kind = kind;
    t.level = static_cast<uint32_t>(s.args.NumberOr("level", 0));
    t.begin_us = s.begin_us;
    t.end_us = s.end_us;
    t.lane_pid = s.pid;
    t.lane_tid = s.tid;
    t.cost = s.args.NumberOr("cost", 0);
    t.prof = s.prof;
    t.kept = U64(s.args, "kept");
    switch (kind) {
      case SpanKind::kDecompose:
        t.nodes = U64(s.args, "nodes");
        t.edges = U64(s.args, "edges");
        t.feasible = U64(s.args, "feasible");
        t.hubs = U64(s.args, "hubs");
        break;
      case SpanKind::kBlock:
        t.index = U64(s.args, "block");
        t.cliques = U64(s.args, "cliques");
        break;
      case SpanKind::kFallback:
        t.cliques = U64(s.args, "cliques");
        break;
      case SpanKind::kReduce:
        t.cliques = U64(s.args, "trivial_cliques");
        break;
      default:
        break;
    }
    out.push_back(t);
  }
  return out;
}

/// W for the level table: the lanes that ran a level's task or parked as
/// an idle pool worker. The ReduceTask runs on the calling thread, which is
/// no pool worker, so its lane counts only when a level's task ran there
/// too (the serial executor).
uint32_t AnalysisLanes(const std::vector<ParsedSpan>& spans) {
  std::set<std::pair<int, int>> lanes;
  for (const ParsedSpan& s : spans) {
    SpanKind kind;
    if (!mce::obs::SpanKindFromName(s.name, &kind)) continue;
    if (kind == SpanKind::kWorkerIdle ||
        (mce::obs::IsDagTask(kind) && kind != SpanKind::kReduce)) {
      lanes.insert({s.pid, s.tid});
    }
  }
  return static_cast<uint32_t>(lanes.size());
}

std::string Label(const TaskSpan& t) {
  std::ostringstream os;
  os << mce::obs::ToString(t.kind) << "(L" << t.level;
  if (t.kind == SpanKind::kBlock) os << "/" << t.index;
  os << ")";
  return os.str();
}

double PerKiloInstr(uint64_t misses, uint64_t instructions) {
  return instructions > 0
             ? static_cast<double>(misses) * 1e3 /
                   static_cast<double>(instructions)
             : 0.0;
}

void PrintBucketRow(const char* name, const mce::obs::ProfileBucket& b,
                    bool hardware) {
  std::printf("  %-16s %6" PRIu64 "  %9.4fs  %9" PRIu64, name, b.spans,
              b.seconds, b.cliques);
  if (hardware) {
    std::printf("  %12" PRIu64 "  %5.2f  %8.2f  %8.2f", b.counters.cycles,
                b.Ipc(),
                PerKiloInstr(b.counters.cache_misses, b.counters.instructions),
                PerKiloInstr(b.counters.branch_misses,
                             b.counters.instructions));
  }
  std::printf("  %12.0f\n", b.NsPerClique());
}

void PrintStragglers(const char* title,
                     const std::vector<mce::obs::Straggler>& list,
                     const std::vector<TaskSpan>& spans) {
  if (list.empty()) return;
  std::printf("\n%s\n", title);
  for (const mce::obs::Straggler& s : list) {
    std::printf("  %-24s %9.4fs", Label(spans[s.span]).c_str(), s.seconds);
    if (s.predicted_cost > 0) {
      std::printf("  cost %.3g  x%.2f vs model", s.predicted_cost,
                  s.deviation);
    }
    std::printf("\n");
  }
}

/// flamegraph.pl collapsed stacks: one line per (lane, kind, level)
/// aggregate, weighted by microseconds. Non-DAG spans (idle, admission
/// stalls, spill flushes) are included — they are exactly what a flame
/// view is good at surfacing.
bool WriteCollapsed(const std::string& path,
                    const std::vector<ParsedSpan>& spans) {
  std::map<std::string, int64_t> lines;
  for (const ParsedSpan& s : spans) {
    std::ostringstream key;
    key << "lane_" << s.pid << "_" << s.tid << ";" << s.name;
    if (const JsonValue* level = s.args.Find("level");
        level != nullptr && level->IsNumber()) {
      key << ";level_" << static_cast<int>(level->number);
    }
    lines[key.str()] += std::max<int64_t>(0, s.end_us - s.begin_us);
  }
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& [stack, us] : lines) {
    out << stack << " " << us << "\n";
  }
  return static_cast<bool>(out);
}

/// speedscope "evented" profile: one profile per lane, open/close events
/// replayed on the trace timebase in microseconds.
bool WriteSpeedscope(const std::string& path,
                     const std::vector<ParsedSpan>& spans) {
  std::vector<std::string> frames;
  std::map<std::string, size_t> frame_index;
  const auto frame_of = [&](const std::string& name) {
    auto [it, inserted] = frame_index.emplace(name, frames.size());
    if (inserted) frames.push_back(name);
    return it->second;
  };
  struct Event {
    int64_t at;
    bool open;
    size_t frame;
    int64_t pair_begin;  // orders C before O at equal timestamps
  };
  std::map<std::pair<int, int>, std::vector<Event>> lanes;
  for (const ParsedSpan& s : spans) {
    const size_t frame = frame_of(s.name);
    auto& lane = lanes[{s.pid, s.tid}];
    lane.push_back({s.begin_us, true, frame, s.begin_us});
    lane.push_back({s.end_us, false, frame, s.begin_us});
  }
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\""
      << ",\"shared\":{\"frames\":[";
  for (size_t i = 0; i < frames.size(); ++i) {
    if (i > 0) out << ",";
    out << "{\"name\":\"" << frames[i] << "\"}";
  }
  out << "]},\"profiles\":[";
  bool first_profile = true;
  for (auto& [lane, events] : lanes) {
    // Replay order: by timestamp; at ties, closes before opens, and
    // among closes the later-opened (inner) span closes first.
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) {
                if (a.at != b.at) return a.at < b.at;
                if (a.open != b.open) return !a.open && b.open;
                if (a.open) return a.pair_begin < b.pair_begin;
                return a.pair_begin > b.pair_begin;
              });
    int64_t start = events.empty() ? 0 : events.front().at;
    int64_t end = events.empty() ? 0 : events.back().at;
    if (!first_profile) out << ",";
    first_profile = false;
    out << "{\"type\":\"evented\",\"name\":\"lane " << lane.first << "."
        << lane.second << "\",\"unit\":\"microseconds\",\"startValue\":"
        << start << ",\"endValue\":" << end << ",\"events\":[";
    for (size_t i = 0; i < events.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"type\":\"" << (events[i].open ? "O" : "C")
          << "\",\"frame\":" << events[i].frame
          << ",\"at\":" << events[i].at << "}";
    }
    out << "]}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

int Run(const Options& opt) {
  std::ifstream in(opt.trace_path);
  if (!in) {
    std::fprintf(stderr, "mce_trace_analyze: cannot open %s\n",
                 opt.trace_path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  JsonValue root;
  std::string error;
  if (!JsonParser(text).Parse(&root, &error)) {
    std::fprintf(stderr, "mce_trace_analyze: %s: %s\n",
                 opt.trace_path.c_str(), error.c_str());
    return 1;
  }
  std::vector<ParsedSpan> parsed;
  if (!ParseSpans(root, &parsed, &error)) {
    std::fprintf(stderr, "mce_trace_analyze: %s: %s\n",
                 opt.trace_path.c_str(), error.c_str());
    return 1;
  }
  const std::vector<TaskSpan> tasks = ToTaskSpans(parsed);
  if (tasks.empty()) {
    std::fprintf(stderr, "mce_trace_analyze: %s holds no pipeline task "
                 "spans\n", opt.trace_path.c_str());
    return opt.require_critical_path ? 1 : 0;
  }

  // Per-kind / per-level attribution through the same fold the engines
  // use, so the tables equal the run's --json profile.
  mce::obs::ProfileAccumulator acc;
  bool any_prof = false;
  for (const TaskSpan& t : tasks) {
    acc.Add(t);
    any_prof = any_prof || t.prof.source != CounterSource::kNone;
  }
  const mce::obs::ProfileStats prof = acc.Snapshot();
  const bool hardware = prof.hardware;

  std::map<std::pair<int, int>, int> lane_ids;
  for (const TaskSpan& t : tasks) {
    lane_ids.emplace(std::make_pair(t.lane_pid, t.lane_tid), 0);
  }

  const mce::obs::CriticalPathResult cp = mce::obs::ComputeCriticalPath(
      std::span<const TaskSpan>(tasks.data(), tasks.size()));

  std::printf("mce_trace_analyze — %s\n", opt.trace_path.c_str());
  std::printf("%zu task spans on %zu lanes, wall %.4fs, counters: %s\n",
              tasks.size(), lane_ids.size(), cp.wall_seconds,
              any_prof ? (hardware ? "hardware" : "software clock") : "off");

  std::printf("\nper-kind attribution:\n");
  std::printf("  %-16s %6s  %10s  %9s", "kind", "spans", "seconds",
              "cliques");
  if (hardware) {
    std::printf("  %12s  %5s  %8s  %8s", "cycles", "IPC", "cm/Ki", "bm/Ki");
  }
  std::printf("  %12s\n", "ns/clique");
  for (const auto& [kind, bucket] : prof.by_kind) {
    PrintBucketRow(mce::obs::ToString(static_cast<SpanKind>(kind)), bucket,
                   hardware);
  }
  PrintBucketRow("total", prof.total, hardware);

  if (!prof.by_level.empty()) {
    std::printf("\nper-level attribution:\n");
    for (size_t level = 0; level < prof.by_level.size(); ++level) {
      char name[32];
      std::snprintf(name, sizeof(name), "level %u",
                    static_cast<unsigned>(level));
      PrintBucketRow(name, prof.by_level[level], hardware);
    }
  }

  std::printf("\ncritical path: %.4fs on-path + %.4fs waits = %.4fs "
              "(%.1f%% of wall %.4fs)\n",
              cp.span_seconds, cp.wait_seconds,
              cp.span_seconds + cp.wait_seconds, cp.coverage * 100.0,
              cp.wall_seconds);
  for (size_t i = 0; i < cp.path.size(); ++i) {
    const mce::obs::CriticalPathEntry& entry = cp.path[i];
    std::printf("  %2zu. %-24s %9.4fs", i + 1,
                Label(tasks[entry.span]).c_str(), entry.seconds);
    if (entry.wait_seconds > 0) {
      std::printf("  (+%.4fs wait)", entry.wait_seconds);
    }
    std::printf("\n");
  }

  PrintStragglers("stragglers by duration:",
                  mce::obs::RankStragglersBySeconds(
                      std::span<const TaskSpan>(tasks.data(), tasks.size()),
                      opt.top),
                  tasks);
  PrintStragglers("stragglers vs cost model:",
                  mce::obs::RankStragglersByDeviation(
                      std::span<const TaskSpan>(tasks.data(), tasks.size()),
                      opt.top),
                  tasks);

  const uint32_t workers = AnalysisLanes(parsed);
  const std::vector<mce::obs::LevelStats> levels = mce::obs::FoldLevels(
      std::span<const TaskSpan>(tasks.data(), tasks.size()), workers);
  if (!levels.empty()) {
    // The columns are the --json "levels" keys; times in seconds.
    std::printf("\nlevel stats (%u analysis lanes):\n", workers);
    std::printf("  %-5s %9s %10s %9s %7s %7s %9s %17s %15s %13s "
                "%22s %15s %15s %12s %20s\n",
                "level", "nodes", "edges", "feasible", "hubs", "blocks",
                "cliques", "decompose_seconds",
                "analyze_seconds", "block_seconds", "busiest_worker_seconds",
                "analyze_threads", "overlap_seconds", "idle_seconds",
                "barrier_idle_seconds");
    for (size_t i = 0; i < levels.size(); ++i) {
      const mce::obs::LevelStats& l = levels[i];
      std::printf("  %-5zu %9" PRIu64 " %10" PRIu64 " %9" PRIu64 " %7" PRIu64
                  " %7" PRIu64 " %9" PRIu64
                  " %17.6f %15.6f %13.6f %22.6f %15u %15.6f %12.6f %20.6f\n",
                  i, l.num_nodes, l.num_edges, l.feasible, l.hubs, l.blocks,
                  l.cliques, l.decompose_seconds,
                  l.analyze_seconds, l.block_seconds,
                  l.busiest_worker_seconds, l.analyze_threads,
                  l.overlap_seconds, l.idle_seconds, l.barrier_idle_seconds);
    }
  }

  if (!opt.collapsed_path.empty()) {
    if (!WriteCollapsed(opt.collapsed_path, parsed)) {
      std::fprintf(stderr, "mce_trace_analyze: cannot write %s\n",
                   opt.collapsed_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote collapsed stacks to %s\n",
                 opt.collapsed_path.c_str());
  }
  if (!opt.speedscope_path.empty()) {
    if (!WriteSpeedscope(opt.speedscope_path, parsed)) {
      std::fprintf(stderr, "mce_trace_analyze: cannot write %s\n",
                   opt.speedscope_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote speedscope profile to %s\n",
                 opt.speedscope_path.c_str());
  }

  if (opt.require_critical_path) {
    if (cp.path.empty()) {
      std::fprintf(stderr,
                   "mce_trace_analyze: no critical path reconstructed\n");
      return 1;
    }
    if (cp.coverage < 0.95 || cp.coverage > 1.05) {
      std::fprintf(stderr,
                   "mce_trace_analyze: critical path covers %.1f%% of wall "
                   "time (need 95%%..105%%)\n",
                   cp.coverage * 100.0);
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--top" && i + 1 < argc) {
      opt.top = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (arg == "--collapsed" && i + 1 < argc) {
      opt.collapsed_path = argv[++i];
    } else if (arg == "--speedscope" && i + 1 < argc) {
      opt.speedscope_path = argv[++i];
    } else if (arg == "--require-critical-path") {
      opt.require_critical_path = true;
    } else if (!arg.empty() && arg[0] != '-') {
      opt.trace_path = arg;
    } else {
      std::fprintf(stderr,
                   "usage: mce_trace_analyze <trace.json> [--top K]\n"
                   "         [--collapsed out.txt] [--speedscope out.json]\n"
                   "         [--require-critical-path]\n");
      return 2;
    }
  }
  if (opt.trace_path.empty()) {
    std::fprintf(stderr, "mce_trace_analyze: a trace file is required\n");
    return 2;
  }
  return Run(opt);
}
