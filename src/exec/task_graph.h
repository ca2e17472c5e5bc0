// The task-graph vocabulary of the execution engine.
//
// One FIND-MAX-CLIQUES run is a graph of two typed stages per recursion
// level h:
//
//   DecomposeTask(h)  = induce G_h from the parent's hubs with its
//                       LevelScope (h >= 1, ChildScope), CUT (Algorithm 2),
//                       and BLOCKS (Algorithm 3). Emits one BlockTask per
//                       block as the block finishes growing.
//   BlockTask(h, i)   = BLOCK-ANALYSIS (Algorithm 4) of block i, each
//                       clique mapped to original ids and, at h >= 1,
//                       kept only if it passes the telescoped Lemma-1
//                       maximality check (MapExpandAndFilterClique), on
//                       the level's bitset rows when it has them.
//                       Level-0 cliques are maximal by construction. Both
//                       executors run the one body, RunBlockTask; they
//                       differ only in where the survivors go.
//
// Dependency edges:
//   DecomposeTask(h+1) <- Cut(h)'s hub set only — NOT level h's clique
//     output, which is what lets an executor overlap level-(h+1)
//     decomposition with the tail of level-h analysis.
//   BlockTask(h, i)    <- block i's emission by DecomposeTask(h).
//   Delivery(h)        <- all BlockTask(h, *) and Delivery(h-1): cliques
//     and observer records surface on the calling thread, in block order,
//     levels in order (DESIGN.md §7).
//
// This header holds the stage payloads, the task bodies and the helpers
// every executor shares; the executors themselves live behind
// exec/executor.h.

#ifndef MCE_EXEC_TASK_GRAPH_H_
#define MCE_EXEC_TASK_GRAPH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "decomp/block.h"
#include "decomp/block_analysis.h"
#include "decomp/blocks.h"
#include "decomp/cut.h"
#include "decomp/filter.h"
#include "decomp/find_max_cliques.h"
#include "graph/graph.h"
#include "mce/clique.h"
#include "mce/enumerator.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "reduce/reduction.h"
#include "util/memory_budget.h"

namespace mce::exec {

class RunReporter;

/// A block's emission-time plan, from one feature pass over the block:
/// the decision::EstimateBlockCost score (dispatch order, the batching
/// decision, progress units, the observer record and the block span) and
/// the bestfit classification the block's analysis runs.
struct BlockPlan {
  double cost = 0;
  MceOptions used;
};

/// Plans `block` at emission. The features are computed once:
/// decision::ComputeFeatures when a tree classifies the block, the cheaper
/// decision::CostFeatures when `options.fixed` is the combination.
BlockPlan PlanBlock(const decomp::Block& block,
                    const decomp::BlockAnalysisOptions& options);

/// Derives the Algorithm-3 options of a DecomposeTask.
decomp::BlocksOptions BlocksOptionsFor(
    const decomp::FindMaxCliquesOptions& options);

/// Derives the Algorithm-4 options of a BlockTask.
decomp::BlockAnalysisOptions AnalysisOptionsFor(
    const decomp::FindMaxCliquesOptions& options);

/// What every analysis task of one recursion level reads: the original
/// graph (the Lemma-1 reference), the reduction prepass's map (null when
/// reduction is off), the level, the level graph's ids in the pipeline
/// graph (empty means identity, level 0) and, at levels >= 1, the level's
/// Lemma-1 rows. Both executors hold one per level.
struct LevelScope {
  const Graph* original = nullptr;
  const reduce::ReductionMap* expansion = nullptr;
  uint32_t level = 0;
  std::vector<NodeId> to_original;
  /// Built by ChildScope when the size rule admits the rows; the executors
  /// charge its Bytes() to the run's budget and drop it once the level's
  /// analysis ends.
  decomp::MaximalityIndex maximality;
};

/// The scope of the level induced on `parent`'s hubs, `to_parent` being
/// the induced graph's ids in the parent level graph: composes
/// to_original through the parent's (empty there means identity, level
/// 0) and builds the level's MaximalityIndex over the original ids its
/// cliques can contain — its nodes through to_original, each expanded
/// through its twin class under an active reduction. Both executors build
/// every level >= 1 this way, right after Induce.
LevelScope ChildScope(const LevelScope& parent,
                      const std::vector<NodeId>& to_parent);

/// The per-clique step of every BlockTask and FallbackTask: translates
/// `level_ids` (ids of G_level) through scope.to_original; under an active
/// reduction re-expands the result (held in *scratch) through the twin
/// classes into original-graph ids, else sorts it; then applies the
/// telescoped Lemma-1 filter against the original graph — a clique from
/// level >= 1 is kept iff it is maximal there, checked on the level's
/// bitset rows when it has them, else by IsMaximalInGraph. Returns true
/// and fills `out` (sorted original ids) when the clique survives; false
/// when it fails the check or its expansion is covered by a trivial
/// clique of the prepass (a reduction leak).
bool MapExpandAndFilterClique(const LevelScope& scope,
                              std::span<const NodeId> level_ids,
                              Clique* scratch, Clique* out);

/// The one BlockTask body: opens the task's window, charges the block's
/// analysis workspace (EstimateAnalysisBytes minus the block, which its
/// executor charged at emission) to reporter.budget() while it runs
/// Algorithm 4 over the whole block with the plan's classification, passes
/// each clique through MapExpandAndFilterClique and each survivor to
/// `keep`, closes the block span, records the block histograms, and
/// returns the observer record, built while the block is still alive.
/// `workspace` may be null.
decomp::BlockTaskRecord RunBlockTask(const LevelScope& scope,
                                     const decomp::Block& block,
                                     const BlockPlan& plan, uint64_t index,
                                     RunReporter& reporter,
                                     BlockWorkspace* workspace,
                                     const CliqueCallback& keep);

/// The ReduceTask: shared prepass driver for the executors. When
/// options.reduce is set, Run() reduces `g` on the calling thread, emits
/// the trivial cliques (level 0, ahead of every pipeline clique — the
/// same stream position on every engine), reports the ReduceTask span and
/// fills out->reduction, and the pipeline then decomposes
/// pipeline_graph() with map() threaded through the filter call sites.
/// When options.reduce is off, pipeline_graph() is `g` and map() is null.
class ReducePrepass {
 public:
  /// Must be called once, before any pipeline task runs. `out` receives
  /// the prepass stats; the trivial cliques count through the span.
  void Run(const Graph& g, const decomp::FindMaxCliquesOptions& options,
           RunReporter& reporter, const decomp::LeveledCliqueCallback& emit,
           decomp::StreamingStats* out);

  const Graph& pipeline_graph() const { return *graph_; }
  /// Null when reduction is off or changed nothing: a LevelScope's
  /// `expansion`.
  const reduce::ReductionMap* map() const {
    return active_ ? &result_.map : nullptr;
  }

 private:
  const Graph* graph_ = nullptr;
  reduce::ReductionResult result_;
  bool active_ = false;
};

/// The FallbackTask shared by the executors: the level graph `graph` is
/// its own m-core, so it is enumerated directly, on the calling thread, as
/// one indivisible task, each clique through MapExpandAndFilterClique and
/// each survivor to `keep`. The task is scored with the block cost model
/// for `progress` (may be null) and reports its span.
void RunFallbackTask(const LevelScope& scope, const Graph& graph,
                     RunReporter& reporter, obs::ProgressEstimator* progress,
                     const CliqueCallback& keep);

/// Rough bytes one BlockTask pins while it runs: the materialized block
/// (Block::EstimatedBytes) plus its analysis workspace, the block's
/// adjacency-list working set and per-node recursion scratch. The block
/// is charged from emission until its task ends, the workspace only while
/// RunBlockTask analyzes; the pooled engine's one budget check, at block
/// emission, is made against the sum — a deliberate estimate, not an
/// allocator measurement. Saturates on overflow.
uint64_t EstimateAnalysisBytes(const decomp::Block& block);

/// The run's effective span sink: the option override when set, else the
/// process-wide installed recorder; nullptr when tracing is off.
obs::TraceRecorder* ResolveTrace(const decomp::FindMaxCliquesOptions& options);

/// A level's DecomposeTask span: the level graph's size and its cut.
obs::TraceEvent MakeDecomposeSpan(uint32_t level, const Graph& graph,
                                  const decomp::CutResult& cut);

/// One task's window on the calling thread, from construction to
/// RunReporter::Close. It always stamps its begin and end on the
/// obs::NowMicros() timebase and its lane (the level fold reads them), and
/// opens a counter window only when the run profiles. Windows
/// opened on the same thread while this one is open are its children:
/// their counter deltas are subtracted from this window's, so every span
/// carries its self work. Neither copyable nor movable — children link to
/// their parent by address.
class TaskWindow {
 public:
  explicit TaskWindow(const RunReporter& reporter);
  ~TaskWindow();
  TaskWindow(const TaskWindow&) = delete;
  TaskWindow& operator=(const TaskWindow&) = delete;

  /// Valid once RunReporter::Close has run.
  double Seconds() const {
    return static_cast<double>(end_us_ - begin_us_) * 1e-6;
  }

 private:
  friend class RunReporter;
  /// Stamps the end and, when counting, closes the counter window into
  /// self_ and hands the full delta to the parent.
  void Stop();

  int64_t begin_us_ = 0;
  int64_t end_us_ = 0;
  int lane_ = 0;  // the pool worker index, or -1 off the pool
  obs::ScopedCounters counters_;
  obs::CounterDelta children_;  // full deltas of the closed child windows
  obs::CounterDelta self_;      // this window's delta minus children_
  TaskWindow* parent_ = nullptr;
};

/// The run's one reporting path. Every DAG task (obs::IsDagTask) reports
/// by closing its TaskWindow here, so LevelStats, progress retirement, the
/// delivered-clique count, the filter counters and the profile are folds
/// over the spans mce_trace_analyze reads back from a trace. It also owns
/// the run's memory accounting: the MemoryBudget every charge goes to, the
/// spill flushes and the admission stalls. Instrument lookups happen once,
/// at construction. Thread-safe.
class RunReporter {
 public:
  explicit RunReporter(const decomp::FindMaxCliquesOptions& options);

  /// True when task windows count (options.profile).
  bool profiling() const { return profiling_; }
  /// True when spans leave the reporter (tracing or profiling).
  bool exports_spans() const { return trace_ != nullptr || profiling_; }
  /// The run's budget (options.memory_budget_bytes): executors, BlockTasks
  /// and clique sinks charge and release it directly.
  MemoryBudget& budget() { return budget_; }

  /// Closes `window` with its task's span `e` (stamped with the window and
  /// its self counter delta) and folds it: into its level, into progress
  /// and the filter counters (analysis spans), into the delivered-clique
  /// count (an analysis span's kept cliques, the ReduceTask's trivial
  /// ones), into the trace when tracing and into the profile when
  /// profiling.
  void Close(TaskWindow& window, obs::TraceEvent e);

  /// One analyzed block (RunBlockTask's): counts it, its cliques, and
  /// observes the block size / edge-density / ns-per-clique histograms.
  void RecordBlock(const decomp::Block& block,
                   const decomp::BlockAnalysisResult& result, double seconds);
  /// One admission stall: a block of `level` whose `bytes` would have
  /// crossed the budget (`charged` bytes in use) was kept off the pool and
  /// analyzed on its decompose worker over [begin_us, end_us). Counted for
  /// MemoryStats and recorded as an AdmissionStall span, which wraps the
  /// block's BlockTask span.
  void RecordAdmissionStall(uint32_t level, int64_t begin_us, int64_t end_us,
                            uint64_t bytes, uint64_t charged);
  /// One clique-sink flush, its kSpillFlush span `e` (args[1] the chunk's
  /// bytes): counted for MemoryStats and the mem.spill_* metrics, into
  /// progress, and into the trace when tracing.
  void RecordSpillFlush(const obs::TraceEvent& e);

  /// Level `level`'s stats with `workers` analysis lanes, once all its
  /// spans have closed; marks the level finished for progress.
  decomp::LevelStats FinishLevel(uint32_t level, uint32_t workers);

  /// Ends the run: fills out's delivered-clique count, every MemoryStats
  /// field, the profile and final progress accounting, then writes the
  /// end-of-run metrics from *out (pipeline, mem.*, reduce.* and
  /// obs.profile.* totals).
  void FinishRun(decomp::StreamingStats* out);

 private:
  obs::TraceRecorder* const trace_;
  const bool profiling_;
  obs::ProfileAccumulator profile_;
  obs::ProgressEstimator* const progress_;
  std::mutex mu_;
  obs::LevelFold fold_;  // mu_
  MemoryBudget budget_;
  std::atomic<uint64_t> cliques_delivered_{0};
  std::atomic<uint64_t> admission_stalls_{0};
  std::atomic<uint64_t> admission_stall_micros_{0};
  std::atomic<uint64_t> spill_chunks_{0};
  std::atomic<uint64_t> spill_bytes_{0};
  obs::MetricsRegistry* const registry_;
  obs::Counter* blocks_ = nullptr;
  obs::Counter* block_cliques_ = nullptr;
  obs::Counter* filter_checked_ = nullptr;
  obs::Counter* filter_kept_ = nullptr;
  obs::Counter* levels_ = nullptr;
  obs::Counter* cliques_emitted_ = nullptr;
  obs::Counter* fallback_runs_ = nullptr;
  obs::Histogram* block_nodes_ = nullptr;
  obs::Histogram* block_density_ = nullptr;
  obs::Histogram* block_ns_per_clique_ = nullptr;
  obs::Histogram* mem_spill_chunk_bytes_ = nullptr;
};

}  // namespace mce::exec

#endif  // MCE_EXEC_TASK_GRAPH_H_
