// TraceRecorder — task-level span tracing for the execution engine.
//
// Every task the engine runs (DecomposeTask, BlockTask, the m-core
// fallback, thread-pool worker idle waits, and the simulated cluster's
// per-lane block placements) can record one begin/end span.
// Recording is designed so that tracing compiled in but *off* costs one
// relaxed atomic load per event site:
//
//   if (obs::TraceRecorder* t = obs::TraceRecorder::installed()) { ... }
//
// When a recorder is installed (or passed via FindMaxCliquesOptions), each
// recording thread appends completed spans to its own buffer — no locks,
// no sharing on the hot path; the registration of a thread's buffer takes
// the recorder mutex once per (thread, recorder) pair. Buffers are bounded
// (events past the cap are counted as dropped, never reallocated into).
//
// Reading a recorder (Tracks/ToChromeTraceJson/WriteChromeTrace) requires
// the writers to be quiesced: every thread that recorded must have
// finished or been joined (the engine's thread pool joins its workers
// before Run returns, so tracing a run and exporting afterwards is safe).
//
// The Chrome-trace export is loadable by chrome://tracing and Perfetto:
// one JSON object {"traceEvents": [...]} of balanced "B"/"E" duration
// events plus thread/process-name metadata, timestamps in microseconds
// rebased to the earliest recorded span.

#ifndef MCE_OBS_TRACE_H_
#define MCE_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/perf_counters.h"
#include "util/status.h"

namespace mce::obs {

enum class SpanKind : uint8_t {
  kDecompose = 0,  // CUT + BLOCKS of one recursion level
  kBlock = 1,      // BLOCK-ANALYSIS of one block, Lemma-1 filter included
  kFallback = 3,   // the indivisible m-core fallback enumeration
  kWorkerIdle = 4, // a pool worker waiting for work
  kSimBlock = 5,   // a block placement on a simulated cluster lane
  kReduce = 7,     // the graph-reduction prepass (src/reduce)
  kSpillFlush = 8, // one clique-sink chunk flushed to its spill file
  kAdmission = 9,  // a block the memory budget kept off the pool; wraps
                   // its BlockTask, run on the decompose worker
};

/// The span's Chrome-trace event name ("DecomposeTask", "BlockTask", ...).
const char* ToString(SpanKind kind);

/// Inverse of ToString. Returns false (and leaves *kind untouched) when
/// `name` is not a known span name. Used by the trace analyzer to map
/// Chrome-trace events back to kinds.
bool SpanKindFromName(const std::string& name, SpanKind* kind);

/// One completed span. `args` is kind-specific (see the arg names emitted
/// by ToChromeTraceJson):
///   kDecompose:  {nodes, edges, feasible, hubs}
///   kBlock:      {kernel, border, visited, cliques} + algorithm/storage
///                + kept
///   kFallback:   {nodes, edges, cliques, 0} + kept
///   kWorkerIdle: {} (index = pool worker index)
///   kSimBlock:   {worker, lane, cliques, 0}
///   kReduce:     {vertices_removed, edges_removed, trivial_cliques,
///                rounds}
///   kSpillFlush: {cliques, bytes, level_resident_after, file_bytes}
///                (index = chunk index within the sink)
///   kAdmission:  {requested_bytes, charged_bytes, budget_bytes, 0}
struct TraceEvent {
  int64_t begin_us = 0;  // obs::NowMicros() timebase
  int64_t end_us = 0;
  SpanKind kind = SpanKind::kBlock;
  uint32_t level = 0;    // recursion level of the task (0 for pool spans)
  uint64_t index = 0;    // block index / chunk index / worker index
  uint64_t args[4] = {0, 0, 0, 0};
  /// Cliques of a kBlock / kFallback span that survived the
  /// per-clique step (MapExpandAndFilterClique): the ones it delivers.
  uint64_t kept = 0;
  /// MCE combination that ran a kBlock span (values of mce::Algorithm /
  /// mce::StorageKind); kNoCombo on every other kind.
  static constexpr uint8_t kNoCombo = 0xff;
  uint8_t algorithm = kNoCombo;
  uint8_t storage = kNoCombo;
  /// Synthetic-lane override: when lane_tid >= 0 the event is drawn on
  /// (lane_pid, lane_tid) instead of the recording thread's track — used
  /// for the simulated cluster's per-worker timeline lanes.
  int32_t lane_pid = 0;
  int32_t lane_tid = -1;
  /// Predicted analysis cost (decision::EstimateBlockCost) of a kBlock or
  /// kFallback span; 0 = not predicted. A kBlock span emits it as a "cost"
  /// arg so the trace analyzer can rank spans by deviation from the cost
  /// model.
  double cost = 0;
  /// Hardware/software counter deltas over the span (see perf_counters.h).
  /// Emitted as args on the Chrome-trace "E" event when source != kNone.
  CounterDelta prof;
};

/// Microseconds on the process-wide monotonic trace clock. All spans —
/// and the executor stats derived from the same windows — share this
/// timebase.
int64_t NowMicros();

class TraceRecorder {
 public:
  /// Default per-thread buffer capacity, in events.
  static constexpr size_t kDefaultMaxEventsPerThread = 1u << 20;

  TraceRecorder() : TraceRecorder(kDefaultMaxEventsPerThread) {}
  explicit TraceRecorder(size_t max_events_per_thread);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Installs `recorder` as the process-wide span sink (nullptr
  /// uninstalls). Event sites test this with one relaxed atomic load, so
  /// an uninstalled process pays essentially nothing. The caller must
  /// uninstall before destroying the recorder and must quiesce recording
  /// threads before reading it.
  static void Install(TraceRecorder* recorder);

  /// The installed recorder, or nullptr. One relaxed atomic load.
  static TraceRecorder* installed() {
    return g_installed.load(std::memory_order_relaxed);
  }

  /// Appends one completed span to the calling thread's buffer.
  /// Thread-safe and lock-free after the thread's first event.
  void Record(const TraceEvent& event);

  /// Overrides the calling thread's track name (default "thread-N"). The
  /// name is emitted as Chrome-trace thread_name metadata — arbitrary
  /// bytes are JSON-escaped on export.
  void SetCurrentThreadName(const std::string& name);

  /// Spans of one recording thread, in recording order.
  struct ThreadTrack {
    int tid = 0;
    std::string name;
    std::vector<TraceEvent> events;
  };

  /// Snapshot of all tracks, ordered by tid. Writers must be quiesced.
  std::vector<ThreadTrack> Tracks() const;

  /// All spans flattened across tracks (test convenience, no particular
  /// inter-thread order). Writers must be quiesced.
  std::vector<TraceEvent> Events() const;

  /// Events rejected because a thread buffer hit its cap.
  uint64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Chrome trace-event JSON of every recorded span. Writers must be
  /// quiesced.
  std::string ToChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Buffer {
    int tid = 0;
    std::string name;
    std::vector<TraceEvent> events;
    size_t capacity = 0;
  };

  Buffer* RegisterThisThread();

  static std::atomic<TraceRecorder*> g_installed;

  /// Distinguishes recorder instances across reuse of the same address
  /// (thread-local cache validation).
  const uint64_t generation_;
  const size_t max_events_per_thread_;
  mutable std::mutex mu_;
  std::map<std::thread::id, std::unique_ptr<Buffer>> buffers_;
  std::atomic<uint64_t> dropped_{0};

  friend struct TraceThreadSlot;
};

}  // namespace mce::obs

#endif  // MCE_OBS_TRACE_H_
