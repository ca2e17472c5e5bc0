// The traced outside-in walk of Algorithm 1.
//
// Walk() re-runs FIND-MAX-CLIQUES serially by calling each layer's public
// function in the order the serial executor does — ReduceGraph, Cut,
// BuildBlocksStreaming, ComputeFeatures / Classify / EstimateBlockCost,
// AnalyzeBlock, IsMaximalInGraph, Induce — and records one span around
// every call. Nothing inside the library is instrumented: a layer's time
// is the span the benchmark wraps around its call, and its self time is
// that span minus its child spans.
//
// Two probes re-run work the program does not do, to split a layer:
// "probe.induce" re-induces every block from its to_parent (the
// materialization share of BuildBlocks), and "probe.shards" re-analyzes
// every block the pooled executor would split, shard by shard.

#ifndef MCE_PERFBENCH_WALK_H_
#define MCE_PERFBENCH_WALK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_lib.h"
#include "util/status.h"

namespace mce::bench {

struct Span {
  const char* name = "";
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t level = 0;
  /// Span-specific payload: the predicted EstimateBlockCost on "analysis"
  /// spans, the id of the re-run "analysis" span on "probe.shards".
  double arg = 0;
  /// Storage backend that ran, on "analysis" spans.
  const char* tag = "";

  double seconds() const { return static_cast<double>(end_ns - begin_ns) * 1e-9; }
};

/// In-memory span stack for one thread. A disabled recorder records
/// nothing (Open returns -1), which is the "spans off" walk.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  int32_t Open(const char* name, uint32_t level = 0);
  void Close(int32_t id);

  /// Only valid for ids returned by Open on an enabled recorder.
  Span& at(int32_t id) { return spans_[static_cast<size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" events, one track); open it in
  /// chrome://tracing or ui.perfetto.dev.
  Status WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, uint32_t level = 0)
      : rec_(rec), id_(rec.Open(name, level)) {}
  ~ScopedSpan() { rec_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }
  /// Sets the payload when recording; a no-op on a disabled recorder.
  void set_arg(double arg) {
    if (id_ >= 0) rec_.at(id_).arg = arg;
  }
  void set_tag(const char* tag) {
    if (id_ >= 0) rec_.at(id_).tag = tag;
  }

 private:
  SpanRecorder& rec_;
  int32_t id_;
};

/// Counts the walk records at the layer boundaries (independent of spans).
struct WalkCounts {
  uint64_t graph_nodes = 0;
  uint64_t graph_bytes = 0;
  uint64_t reduce_vertices_removed = 0;
  uint64_t reduce_trivial_cliques = 0;
  uint64_t cut_levels = 0;
  uint64_t cut_hubs = 0;
  uint64_t feasible_nodes = 0;
  uint64_t blocks_count = 0;
  uint64_t blocks_nodes = 0;
  uint64_t blocks_edges = 0;
  /// Storage the decision tree picked per block (AnalyzeBlock may still
  /// fall back to lists when dense storage would be too large).
  uint64_t blocks_lists = 0;
  uint64_t blocks_matrix = 0;
  uint64_t blocks_bitset = 0;
  uint64_t analysis_cliques = 0;
  uint64_t analysis_shards = 0;
  /// Split blocks whose shards produced a different clique count than the
  /// whole-block analysis (must stay 0).
  uint64_t shard_mismatches = 0;
  uint64_t filter_checked = 0;
  uint64_t filter_kept = 0;
  bool used_fallback = false;
};

struct WalkOutput {
  Status status;
  /// Every kept clique with its origin level (set digest comparable with
  /// DigestOf(Find)).
  Digest digest;
  WalkCounts counts;
};

/// Loads the workload's input from `input_dir` and walks Algorithm 1 over
/// it, recording spans into `rec`. `probes` adds the two probe re-runs.
WalkOutput Walk(const Workload& w, const std::string& input_dir,
                SpanRecorder& rec, bool probes);

}  // namespace mce::bench

#endif  // MCE_PERFBENCH_WALK_H_
