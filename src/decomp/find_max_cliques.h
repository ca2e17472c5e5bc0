// The overall algorithm (Algorithm 1, FIND-MAX-CLIQUES).
//
// Each level l: CUT splits the current graph G_l into feasible and hub
// nodes; BLOCKS decomposes the feasible side; BLOCK-ANALYSIS enumerates the
// cliques with a feasible node (C_f); the hub-induced subgraph becomes
// G_{l+1}. Because the induced chain G = G_0 > G_1 > ... preserves
// "maximal in G implies maximal in every G_l", the per-level Lemma 1
// filters telescope into a single rule: a clique found at level l >= 1 is
// kept iff it is maximal in G. Level-0 cliques are maximal by construction.
//
// Termination: each level strictly shrinks the graph while feasible nodes
// exist; when none exists (the m-core of G is non-empty, i.e. the sparsity
// precondition degeneracy < m of Theorem 1 is violated), the implementation
// falls back to a direct MCE of the remaining graph and flags it in the
// stats, rather than looping forever.

#ifndef MCE_DECOMP_FIND_MAX_CLIQUES_H_
#define MCE_DECOMP_FIND_MAX_CLIQUES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "decision/decision_tree.h"
#include "decomp/blocks.h"
#include "mce/clique.h"
#include "mce/enumerator.h"
#include "obs/critical_path.h"
#include "obs/perf_counters.h"
#include "obs/progress.h"
#include "reduce/reduction.h"

namespace mce::obs {
class TraceRecorder;
class MetricsRegistry;
}  // namespace mce::obs

namespace mce::decomp {

/// One analyzed block: what FindMaxCliquesOptions::block_observer receives
/// and what the simulated cluster (src/dist) schedules and costs.
struct BlockTaskRecord {
  uint32_t level = 0;
  /// Block index within its level (emission order).
  uint64_t index = 0;
  uint64_t nodes = 0;
  uint64_t edges = 0;
  uint64_t bytes = 0;    // estimated shipping size
  uint64_t cliques = 0;
  /// Pre-execution cost estimate: the decision::EstimateBlockCost score
  /// every executor computes at block emission.
  double estimated_cost = 0;
  double seconds = 0;    // measured analysis wall time
  /// The data-structure/algorithm combination that actually ran.
  MceOptions used;
};

/// Which execution engine (src/exec) runs the pipeline. kSerial walks the
/// levels on the calling thread with the streaming O(graph + largest
/// block) memory profile; kPooled runs block analysis and the Lemma-1
/// filter on a thread pool and overlaps level h+1's decomposition with the
/// tail of level h's analysis. kAuto picks kSerial when the resolved
/// thread count is 1, kPooled otherwise. Every choice produces
/// byte-identical emission.
enum class ExecutorKind : uint8_t {
  kAuto = 0,
  kSerial = 1,
  kPooled = 2,
};

/// Default tiny-block batching threshold (FindMaxCliquesOptions::
/// max_block_cost), in decision::EstimateBlockCost work units. On the
/// bench_pipeline social stand-in, per-level block costs run from a few
/// hundred (the sparse mass) up to ~80k (dense planted-clique blocks):
/// 8000 batches the sparse mass and leaves every block that can dominate
/// a level as its own task.
inline constexpr double kDefaultMaxBlockCost = 8000.0;

/// Combination used by the degenerate fallback (whole-graph MCE of the
/// m-core).
inline constexpr MceOptions kFallbackMce = {Algorithm::kEppstein,
                                            StorageKind::kAdjacencyList};

struct FindMaxCliquesOptions {
  /// Block bound m. Completeness requires nothing; termination without the
  /// fallback requires m > degeneracy(G).
  uint32_t max_block_size = 1000;
  /// Options for the second-level decomposition.
  uint32_t min_adjacency = 1;
  SeedPolicy seed_policy = SeedPolicy::kLowestDegree;
  /// bestfit: decision tree if non-null, else the fixed combination.
  const decision::DecisionTree* tree = nullptr;
  MceOptions fixed = {Algorithm::kTomita, StorageKind::kAdjacencyList};
  /// Worker threads for each level's block analysis and Lemma-1 filter.
  /// 1 = serial (cliques stream out as blocks are analyzed); > 1 buffers
  /// each block's cliques and merges them in block order, so the emitted
  /// cliques (content and order) are identical to the serial run; 0 = one
  /// thread per hardware thread.
  uint32_t num_threads = 1;
  /// Tiny-block batching (pooled executor, more than one thread). Every
  /// block is analyzed whole, by one task. A block whose predicted
  /// analysis cost (decision::EstimateBlockCost over the block's
  /// classification features) is below max_block_cost joins its level's
  /// batch, which runs as one pool task once it holds 4x max_block_cost
  /// of predicted work (1x on pools wider than 4 threads), before a block
  /// that would cross the memory budget is analyzed on the decompose
  /// worker, or when the level's decomposition ends; any other block is
  /// its own task. Ready
  /// tasks dispatch shallowest level first, then largest predicted cost.
  /// split_blocks=false (CLI --no-split) or max_block_cost <= 0 makes
  /// every block its own task. Emission is byte-identical either way. The
  /// names date from when a block above max_block_cost was also split
  /// into kernel-range shards.
  bool split_blocks = true;
  double max_block_cost = kDefaultMaxBlockCost;
  /// Execution engine selection; see ExecutorKind.
  ExecutorKind executor = ExecutorKind::kAuto;
  /// Graph-reduction prepass (src/reduce): strip degree-0/1, simplicial
  /// (dominated-fold), and true-twin vertices before CUT ever runs, emit
  /// their maximal cliques directly (level 0, ahead of every block
  /// clique), decompose the reduced graph, and re-expand each pipeline
  /// clique through the ReductionMap *before* the Lemma-1 filter — the
  /// filter still checks expanded cliques against the original graph, so
  /// filtering semantics are unchanged. Also relabels every block into
  /// reverse degeneracy order (BlocksOptions::degeneracy_relabel). The
  /// emitted clique set is identical with and without. CLI: --reduce /
  /// --no-reduce.
  bool reduce = false;
  /// Optional per-block hook: receives each block's record, built when the
  /// block's task ends. Always invoked from the pipeline's calling thread,
  /// in block order, even when num_threads > 1 — it need not be
  /// thread-safe. Attaching one changes neither scheduling nor memory:
  /// the pooled executor frees every block when its task ends, checks
  /// each block against the budget alike, and replays the stored records
  /// at delivery.
  std::function<void(const BlockTaskRecord&)> block_observer;
  /// Observability sinks (src/obs) for this run. Not owned; must outlive
  /// the run. nullptr means "use the process-wide installed instance, if
  /// any" (obs::TraceRecorder::Install / obs::MetricsRegistry::Install) —
  /// so with nothing installed and nothing set here, every event site
  /// costs one relaxed atomic load and nothing else.
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Live progress accounting (src/obs/progress.h). Unlike trace/metrics
  /// there is no process-wide installed fallback: progress is inherently
  /// run-scoped, so it is options-only. When set, executors register each
  /// block's EstimateBlockCost at emission, retire it on block
  /// completion (the fallback MCE counts as one block), and fill the
  /// final ProgressAccounting in the run stats. A TelemetrySampler
  /// attached to the same estimator turns this into the NDJSON heartbeat
  /// stream (CLI: --heartbeat-out / --heartbeat-interval-ms /
  /// --progress). Not owned; must outlive the run.
  obs::ProgressEstimator* progress = nullptr;
  /// Byte budget for the engine's tracked materializations (pipeline graph,
  /// level subgraphs, blocks, analysis workspaces, clique-sink buffers).
  /// The block builder's per-call scratch, its degree-oriented rows
  /// included, is not charged: on the 5 MB powerlaw-oocore benchmark the
  /// rows take 1.13 MB against a 4.1-5.1 MB tracked peak, and charging
  /// them would keep most blocks off the pool (DESIGN.md §11).
  /// 0 = unlimited (peak is still tracked). With a budget set, the pooled
  /// executor checks it once per block, at emission: a block whose charge
  /// (the block plus its analysis workspace) would push the tracked bytes
  /// past the budget is analyzed right away on the decompose worker, as
  /// the serial walk does, instead of going to the pool — no task ever
  /// waits. Clique sinks spill once past the spill threshold.
  /// CLI: --memory-budget.
  uint64_t memory_budget_bytes = 0;
  /// Per-level resident-byte ceiling for buffered cliques before sinks
  /// flush sorted FlatCliques chunks to temp files. 0 derives
  /// max(1, memory_budget_bytes / 8) when a budget is set, else disables
  /// spilling. CLI: --spill-threshold.
  uint64_t spill_threshold_bytes = 0;
  /// Directory for spill chunk files; "" = $TMPDIR, then /tmp. CLI:
  /// --spill-dir.
  std::string spill_dir;
  /// Per-task counter profiling (src/obs/perf_counters.h): every task the
  /// executors run reads its thread's perf_event_open group (or the
  /// software thread-clock fallback) around its window, attaches the delta
  /// to the task's trace span, and accumulates per-kind / per-level totals
  /// into the result's ProfileStats. Off by default — the task sites then
  /// test one plain bool. CLI: --perf-counters.
  bool profile = false;
};

/// The spill threshold a run actually uses (see spill_threshold_bytes).
inline uint64_t EffectiveSpillThreshold(const FindMaxCliquesOptions& options) {
  if (options.spill_threshold_bytes > 0) return options.spill_threshold_bytes;
  if (options.memory_budget_bytes == 0) return 0;
  return options.memory_budget_bytes / 8 > 0 ? options.memory_budget_bytes / 8
                                             : 1;
}

/// Per-recursion-level telemetry (drives Figures 7-11), folded from the
/// run's task spans (obs/critical_path.h).
using LevelStats = obs::LevelStats;

/// Memory-budget telemetry for one run (see
/// FindMaxCliquesOptions::memory_budget_bytes). peak_tracked_bytes is the
/// high-water mark of the engine's deliberate materializations — graphs,
/// blocks, workspaces, sink buffers — not an allocator measurement.
struct MemoryStats {
  uint64_t budget_bytes = 0;
  uint64_t peak_tracked_bytes = 0;
  uint64_t spill_chunks = 0;
  uint64_t spill_bytes = 0;
  uint64_t admission_stalls = 0;
  double admission_stall_seconds = 0;
};

/// What every executor run reports.
struct StreamingStats {
  std::vector<LevelStats> levels;
  /// True when the sparsity precondition failed and the remaining hub core
  /// was enumerated directly.
  bool used_fallback = false;
  /// Includes the reduction prepass's trivial cliques when reduce is on.
  uint64_t cliques_emitted = 0;
  /// Prepass telemetry (reduction.enabled iff options.reduce was set).
  /// Trivial cliques emitted by the prepass are counted here and in the
  /// clique set, not in any LevelStats entry.
  reduce::ReductionStats reduction;
  /// Memory-budget telemetry (zeros on unbudgeted, unspilled runs except
  /// peak_tracked_bytes, which is always maintained).
  MemoryStats memory;
  /// Final progress accounting (enabled iff options.progress was set).
  obs::ProgressAccounting progress;
  /// Per-task counter attribution (enabled iff options.profile was set).
  obs::ProfileStats profile;
};

/// A run's stats plus its collected cliques.
struct FindMaxCliquesResult : StreamingStats {
  /// All maximal cliques of G, canonicalized.
  CliqueSet cliques;
  /// origin_level[i]: recursion level whose blocks produced cliques()[i];
  /// level >= 1 means the clique consists of hub nodes only (w.r.t. the
  /// top-level m) — the gray bars of Figures 9-11.
  std::vector<uint32_t> origin_level;

  /// Number of first-level decomposition iterations (Figure 7 reports 2-3).
  size_t NumLevels() const { return levels.size(); }
  uint64_t CliquesFromLevel(uint32_t min_level) const;
};

FindMaxCliquesResult FindMaxCliques(const Graph& g,
                                    const FindMaxCliquesOptions& options);

/// Streaming callback: a maximal clique (sorted, in g's node ids; only
/// valid during the call) and the recursion level that produced it.
using LeveledCliqueCallback =
    std::function<void(std::span<const NodeId>, uint32_t level)>;

/// Streaming form of FindMaxCliques: emits each maximal clique of G
/// exactly once (the Lemma 1 filter is applied per clique before emission)
/// without materializing the collection — the memory profile stays
/// O(graph + largest block) regardless of the output size. The multiset of
/// emitted cliques equals FindMaxCliques(g, options).cliques.
StreamingStats FindMaxCliquesStreaming(const Graph& g,
                                       const FindMaxCliquesOptions& options,
                                       const LeveledCliqueCallback& emit);

}  // namespace mce::decomp

#endif  // MCE_DECOMP_FIND_MAX_CLIQUES_H_
