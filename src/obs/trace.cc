#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <utility>

#include "util/check.h"
#include "util/thread_pool.h"

namespace mce::obs {

namespace {

std::atomic<uint64_t> g_next_generation{1};

/// Per-thread cache of the last (recorder, buffer) pairing, so recording
/// after the first event is a pointer comparison plus a vector push_back.
struct Slot {
  TraceRecorder* owner = nullptr;
  uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local Slot t_slot;

}  // namespace

std::atomic<TraceRecorder*> TraceRecorder::g_installed{nullptr};

const char* ToString(SpanKind kind) {
  switch (kind) {
    case SpanKind::kDecompose:
      return "DecomposeTask";
    case SpanKind::kBlock:
      return "BlockTask";
    case SpanKind::kFallback:
      return "FallbackTask";
    case SpanKind::kWorkerIdle:
      return "idle";
    case SpanKind::kSimBlock:
      return "SimBlockTask";
    case SpanKind::kReduce:
      return "ReduceTask";
    case SpanKind::kSpillFlush:
      return "SpillFlushTask";
    case SpanKind::kAdmission:
      return "AdmissionStall";
  }
  return "?";
}

bool SpanKindFromName(const std::string& name, SpanKind* kind) {
  static constexpr SpanKind kAll[] = {
      SpanKind::kDecompose, SpanKind::kBlock,      SpanKind::kFallback,
      SpanKind::kWorkerIdle, SpanKind::kSimBlock,  SpanKind::kReduce,
      SpanKind::kSpillFlush, SpanKind::kAdmission};
  for (SpanKind k : kAll) {
    if (name == ToString(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TraceRecorder::TraceRecorder(size_t max_events_per_thread)
    : generation_(g_next_generation.fetch_add(1, std::memory_order_relaxed)),
      max_events_per_thread_(std::max<size_t>(1, max_events_per_thread)) {}

TraceRecorder::~TraceRecorder() {
  // Defensive: a recorder must not stay installed past its lifetime.
  TraceRecorder* self = this;
  g_installed.compare_exchange_strong(self, nullptr,
                                      std::memory_order_relaxed);
}

void TraceRecorder::Install(TraceRecorder* recorder) {
  g_installed.store(recorder, std::memory_order_relaxed);
}

TraceRecorder::Buffer* TraceRecorder::RegisterThisThread() {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Buffer>& slot = buffers_[std::this_thread::get_id()];
  if (slot == nullptr) {
    slot = std::make_unique<Buffer>();
    slot->tid = static_cast<int>(buffers_.size()) - 1;
    slot->capacity = max_events_per_thread_;
    const size_t worker = ThreadPool::CurrentWorkerIndex();
    slot->name = worker != ThreadPool::kNotAWorker
                     ? "pool worker " + std::to_string(worker)
                     : "caller thread " + std::to_string(slot->tid);
    slot->events.reserve(std::min<size_t>(4096, slot->capacity));
  }
  return slot.get();
}

void TraceRecorder::Record(const TraceEvent& event) {
  Buffer* buffer;
  if (t_slot.owner == this && t_slot.generation == generation_) {
    buffer = static_cast<Buffer*>(t_slot.buffer);
  } else {
    buffer = RegisterThisThread();
    t_slot = Slot{this, generation_, buffer};
  }
  if (buffer->events.size() >= buffer->capacity) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer->events.push_back(event);
}

void TraceRecorder::SetCurrentThreadName(const std::string& name) {
  Buffer* buffer;
  if (t_slot.owner == this && t_slot.generation == generation_) {
    buffer = static_cast<Buffer*>(t_slot.buffer);
  } else {
    buffer = RegisterThisThread();
    t_slot = Slot{this, generation_, buffer};
  }
  buffer->name = name;
}

std::vector<TraceRecorder::ThreadTrack> TraceRecorder::Tracks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ThreadTrack> tracks;
  tracks.reserve(buffers_.size());
  for (const auto& [id, buffer] : buffers_) {
    (void)id;
    tracks.push_back(ThreadTrack{buffer->tid, buffer->name, buffer->events});
  }
  std::sort(tracks.begin(), tracks.end(),
            [](const ThreadTrack& a, const ThreadTrack& b) {
              return a.tid < b.tid;
            });
  return tracks;
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::vector<TraceEvent> out;
  for (const ThreadTrack& track : Tracks()) {
    out.insert(out.end(), track.events.begin(), track.events.end());
  }
  return out;
}

namespace {

void AppendF(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<size_t>(static_cast<size_t>(n),
                                              sizeof(buf) - 1));
}

/// Kind-specific argument object for a "B" event.
void AppendArgs(std::string& out, const TraceEvent& e) {
  using ull = unsigned long long;
  switch (e.kind) {
    case SpanKind::kDecompose:
      AppendF(out,
              ",\"args\":{\"level\":%u,\"nodes\":%llu,\"edges\":%llu,"
              "\"feasible\":%llu,\"hubs\":%llu}",
              e.level, static_cast<ull>(e.args[0]),
              static_cast<ull>(e.args[1]), static_cast<ull>(e.args[2]),
              static_cast<ull>(e.args[3]));
      break;
    case SpanKind::kBlock:
      AppendF(out,
              ",\"args\":{\"level\":%u,\"block\":%llu,\"kernel\":%llu,"
              "\"border\":%llu,\"visited\":%llu,\"cliques\":%llu,"
              "\"kept\":%llu",
              e.level, static_cast<ull>(e.index), static_cast<ull>(e.args[0]),
              static_cast<ull>(e.args[1]), static_cast<ull>(e.args[2]),
              static_cast<ull>(e.args[3]), static_cast<ull>(e.kept));
      if (e.algorithm != TraceEvent::kNoCombo) {
        AppendF(out, ",\"algorithm\":%u,\"storage\":%u",
                static_cast<unsigned>(e.algorithm),
                static_cast<unsigned>(e.storage));
      }
      if (e.cost > 0) AppendF(out, ",\"cost\":%.6g", e.cost);
      out += "}";
      break;
    case SpanKind::kFallback:
      AppendF(out,
              ",\"args\":{\"level\":%u,\"nodes\":%llu,\"edges\":%llu,"
              "\"cliques\":%llu,\"kept\":%llu}",
              e.level, static_cast<ull>(e.args[0]),
              static_cast<ull>(e.args[1]), static_cast<ull>(e.args[2]),
              static_cast<ull>(e.kept));
      break;
    case SpanKind::kWorkerIdle:
      AppendF(out, ",\"args\":{\"worker\":%llu}", static_cast<ull>(e.index));
      break;
    case SpanKind::kSimBlock:
      AppendF(out,
              ",\"args\":{\"level\":%u,\"block\":%llu,\"worker\":%llu,"
              "\"lane\":%llu,\"cliques\":%llu}",
              e.level, static_cast<ull>(e.index), static_cast<ull>(e.args[0]),
              static_cast<ull>(e.args[1]), static_cast<ull>(e.args[2]));
      break;
    case SpanKind::kReduce:
      AppendF(out,
              ",\"args\":{\"vertices_removed\":%llu,\"edges_removed\":%llu,"
              "\"trivial_cliques\":%llu,\"rounds\":%llu}",
              static_cast<ull>(e.args[0]), static_cast<ull>(e.args[1]),
              static_cast<ull>(e.args[2]), static_cast<ull>(e.args[3]));
      break;
    case SpanKind::kSpillFlush:
      AppendF(out,
              ",\"args\":{\"level\":%u,\"chunk\":%llu,\"cliques\":%llu,"
              "\"bytes\":%llu,\"level_resident_after\":%llu,"
              "\"file_bytes\":%llu}",
              e.level, static_cast<ull>(e.index), static_cast<ull>(e.args[0]),
              static_cast<ull>(e.args[1]), static_cast<ull>(e.args[2]),
              static_cast<ull>(e.args[3]));
      break;
    case SpanKind::kAdmission:
      AppendF(out,
              ",\"args\":{\"level\":%u,\"requested_bytes\":%llu,"
              "\"charged_bytes\":%llu,\"budget_bytes\":%llu}",
              e.level, static_cast<ull>(e.args[0]),
              static_cast<ull>(e.args[1]), static_cast<ull>(e.args[2]));
      break;
  }
}

/// JSON string-escapes `value` into `out`. Control characters and every
/// byte >= 0x7F become \u00XX (per byte, Latin-1 style) so the emitted
/// trace is pure ASCII and valid JSON whatever bytes a thread name holds.
void AppendEscaped(std::string& out, const std::string& value) {
  for (const char c : value) {
    const unsigned char byte = static_cast<unsigned char>(c);
    if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (byte < 0x20 || byte >= 0x7f) {
      AppendF(out, "\\u%04x", byte);
    } else {
      out += c;
    }
  }
}

void AppendMetadata(std::string& out, int pid, int tid, const char* key,
                    const std::string& value, bool& first) {
  if (!first) out += ",\n";
  first = false;
  AppendF(out,
          "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"ts\":0,"
          "\"args\":{\"name\":\"",
          key, pid, tid);
  AppendEscaped(out, value);
  out += "\"}}";
}

}  // namespace

std::string TraceRecorder::ToChromeTraceJson() const {
  const std::vector<ThreadTrack> tracks = Tracks();

  // Group events into display lanes: a recording thread's track is
  // (pid 0, its tid); synthetic lane events override with
  // (lane_pid, lane_tid).
  std::map<std::pair<int, int>, std::vector<TraceEvent>> lanes;
  std::map<std::pair<int, int>, std::string> lane_names;
  int64_t min_ts = INT64_MAX;
  for (const ThreadTrack& track : tracks) {
    lane_names[{0, track.tid}] = track.name;
    for (const TraceEvent& e : track.events) {
      const std::pair<int, int> key =
          e.lane_tid >= 0 ? std::pair<int, int>{e.lane_pid, e.lane_tid}
                          : std::pair<int, int>{0, track.tid};
      lanes[key].push_back(e);
      min_ts = std::min(min_ts, e.begin_us);
    }
  }
  if (min_ts == INT64_MAX) min_ts = 0;
  for (const auto& [key, events] : lanes) {
    if (key.first == 0 && lane_names.count(key)) continue;
    // Synthetic lanes are named from their first event's worker/lane args.
    lane_names[key] = "worker " + std::to_string(events.front().args[0]) +
                      " lane " + std::to_string(events.front().args[1]);
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  AppendMetadata(out, 0, 0, "process_name", "mce", first);
  bool any_sim = false;
  for (const auto& [key, events] : lanes) {
    (void)events;
    if (key.first != 0) any_sim = true;
  }
  if (any_sim) AppendMetadata(out, 1, 0, "process_name", "mce cluster sim",
                              first);
  for (const auto& [key, name] : lane_names) {
    if (key.first == 0 && !lanes.count(key)) continue;  // silent thread
    AppendMetadata(out, key.first, key.second, "thread_name", name, first);
  }

  for (auto& [key, events] : lanes) {
    const int pid = key.first;
    const int tid = key.second;
    // Same-thread spans nest or are disjoint; sort outer-first and emit
    // balanced B/E pairs with a nesting stack so per-lane timestamps are
    // monotonic.
    std::sort(events.begin(), events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                if (a.begin_us != b.begin_us) return a.begin_us < b.begin_us;
                return a.end_us > b.end_us;
              });
    std::vector<TraceEvent> stack;
    auto emit_end = [&](const TraceEvent& e) {
      AppendF(out,
              ",\n{\"name\":\"%s\",\"cat\":\"mce\",\"ph\":\"E\",\"pid\":%d,"
              "\"tid\":%d,\"ts\":%lld",
              ToString(e.kind), pid, tid,
              static_cast<long long>(e.end_us - min_ts));
      // Counter deltas ride on the E event (Perfetto merges B and E args
      // into one slice) so the B args stay byte-identical with profiling
      // off.
      if (e.prof.source != CounterSource::kNone) {
        using ull = unsigned long long;
        AppendF(out,
                ",\"args\":{\"cycles\":%llu,\"instructions\":%llu,"
                "\"cache_misses\":%llu,\"branch_misses\":%llu,"
                "\"task_clock_ns\":%llu,\"prof\":\"%s\"}",
                static_cast<ull>(e.prof.cycles),
                static_cast<ull>(e.prof.instructions),
                static_cast<ull>(e.prof.cache_misses),
                static_cast<ull>(e.prof.branch_misses),
                static_cast<ull>(e.prof.task_clock_ns),
                e.prof.source == CounterSource::kHardware ? "hw" : "sw");
      }
      out += "}";
    };
    for (TraceEvent e : events) {
      while (!stack.empty() && stack.back().end_us <= e.begin_us) {
        emit_end(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) {
        // Clamp a child to its enclosing span so B/E stay balanced even if
        // clock jitter produced a partial overlap.
        e.end_us = std::max(e.begin_us,
                            std::min(e.end_us, stack.back().end_us));
      }
      AppendF(out,
              ",\n{\"name\":\"%s\",\"cat\":\"mce\",\"ph\":\"B\",\"pid\":%d,"
              "\"tid\":%d,\"ts\":%lld",
              ToString(e.kind), pid, tid,
              static_cast<long long>(e.begin_us - min_ts));
      AppendArgs(out, e);
      out += "}";
      stack.push_back(e);
    }
    while (!stack.empty()) {
      emit_end(stack.back());
      stack.pop_back();
    }
  }
  AppendF(out, "\n],\"otherData\":{\"dropped_events\":%llu}}\n",
          static_cast<unsigned long long>(dropped_events()));
  return out;
}

Status TraceRecorder::WriteChromeTrace(const std::string& path) const {
  const std::string json = ToChromeTraceJson();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open trace output " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return Status::IoError("short write to trace output " + path);
  }
  return Status::OK();
}

}  // namespace mce::obs
