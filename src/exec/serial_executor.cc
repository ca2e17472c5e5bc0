// SerialExecutor: depth-first execution of the task graph on the calling
// thread. DecomposeTask(h) streams its blocks and each block's
// RunBlockTask runs the moment the block finishes growing, emitting each
// clique as it passes the per-clique Lemma-1 step — so at most one block
// (plus the level graph) is alive at a time and the memory profile is
// O(graph + largest block).

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "decomp/cut.h"
#include "exec/executor.h"
#include "graph/subgraph.h"
#include "mce/workspace.h"
#include "util/check.h"
#include "util/memory_budget.h"

namespace mce::exec {

namespace {

class SerialExecutor final : public Executor {
 public:
  decomp::StreamingStats Run(const Graph& g,
                             const decomp::FindMaxCliquesOptions& options,
                             const decomp::LeveledCliqueCallback& emit) override {
    MCE_CHECK_GE(options.max_block_size, 1u);
    RunReporter reporter(options);
    obs::ProgressEstimator* const progress = options.progress;
    decomp::StreamingStats out;
    // One workspace reused across every block of the run.
    BlockWorkspace workspace;
    // ReduceTask: when options.reduce is set the prepass emits the trivial
    // cliques right here and the level chain below starts from the
    // reduced graph; `g` stays the filter's reference graph.
    ReducePrepass prep;
    prep.Run(g, options, reporter, emit, &out);
    // The level being walked: `g` is its Lemma-1 reference graph.
    LevelScope scope{&g, prep.map(), 0, {}};
    const Graph* current = &prep.pipeline_graph();
    // The serial walk never stalls or spills (its live set is already
    // O(graph + one block)), but it tracks the same charges the pooled
    // engine does so peak_tracked_bytes is comparable across executors.
    MemoryBudget budget(options.memory_budget_bytes);
    auto charge = [&](uint64_t bytes) {
      if (bytes == 0) return;
      budget.Charge(bytes);
      reporter.RecordCharge(bytes);
    };
    // Queue depth is always 0 on the serial walk; the budget gauges
    // make serial heartbeats comparable with pooled ones. The guard
    // detaches the closure on every exit, including unwinds out of the
    // user's emit callback — the captures live on this frame.
    obs::ScopedGaugeSource gauge_guard(progress, [&budget] {
      obs::GaugeSample s;
      s.mem_charged_bytes = budget.charged();
      s.mem_peak_bytes = budget.peak();
      return s;
    });
    const uint64_t pipeline_graph_bytes =
        prep.pipeline_graph().ResidentBytes();
    charge(pipeline_graph_bytes);
    uint64_t level_graph_bytes = 0;  // the current owned level graph
    Graph owned;  // deeper levels own the hub-induced subgraph

    const decomp::BlocksOptions blocks_options = BlocksOptionsFor(options);
    const decomp::BlockAnalysisOptions analysis_options =
        AnalysisOptionsFor(options);

    // Every analysis task's survivors stream straight to the caller.
    const CliqueCallback keep = [&](std::span<const NodeId> c) {
      emit(c, scope.level);
    };

    // BlockTask(level, block_index), run the moment its block is emitted.
    uint64_t block_index = 0;
    auto analyze_block = [&](decomp::Block&& block) {
      // The block plus its analysis workspace are live for exactly this
      // call: the charge the pooled engine makes at emission.
      const uint64_t block_charge = EstimateAnalysisBytes(block);
      charge(block_charge);
      // One feature pass serves every consumer: the classification the
      // analysis runs, the progress denominator (registered before the
      // analysis so a sampler sees the work as pending, not invisible),
      // the observer record, and the block span. The serial walk never
      // reorders or batches, but plans blocks exactly as the pooled engine
      // does.
      const BlockPlan plan = PlanBlock(block, analysis_options);
      if (progress != nullptr) progress->RegisterBlock(scope.level, plan.cost);
      const decomp::BlockTaskRecord record = RunBlockTask(
          scope, block, plan, block_index++, reporter, &workspace, keep);
      budget.Release(block_charge);
      if (options.block_observer) options.block_observer(record);
    };

    for (;;) {
      // The level's DecomposeTask window covers CUT, the block growth and
      // the level's analysis: the inline BlockTask (or fallback) windows
      // nest inside it on this thread, so its span's self time and
      // counters hold only the decompose's own work.
      TaskWindow decompose_window(reporter);
      if (progress != nullptr) progress->BeginLevel(scope.level);
      decomp::CutResult cut = decomp::Cut(*current, options.max_block_size);
      // Sparsity precondition violated: the remaining graph is its own
      // m-core. Enumerate it directly as one indivisible task.
      const bool fallback = cut.feasible.empty() && current->num_nodes() > 0;
      out.used_fallback = fallback;
      block_index = 0;
      if (fallback) {
        RunFallbackTask(scope, *current, reporter, progress, keep);
      } else {
        decomp::BuildBlocksStreaming(*current, cut.feasible, blocks_options,
                                     analyze_block);
      }
      reporter.Close(decompose_window,
                     MakeDecomposeSpan(scope.level, *current, cut));
      out.levels.push_back(reporter.FinishLevel(scope.level, 1));
      if (fallback || cut.hubs.empty()) break;

      // Recursive step: continue on the hub-induced subgraph.
      InducedSubgraph sub = Induce(*current, cut.hubs);
      scope.to_original = ComposeToOriginal(scope.to_original, sub.to_parent);
      // Parent and child graphs overlap until the move below frees the
      // parent, so the child is charged before the parent is released.
      const uint64_t next_graph_bytes = sub.graph.ResidentBytes();
      charge(next_graph_bytes);
      owned = std::move(sub.graph);
      budget.Release(level_graph_bytes);
      level_graph_bytes = next_graph_bytes;
      current = &owned;
      ++scope.level;
    }
    out.memory.budget_bytes = budget.limit();
    out.memory.peak_tracked_bytes = budget.peak();
    reporter.FinishRun(&out);
    return out;
  }
};

}  // namespace

std::unique_ptr<Executor> MakeSerialExecutor() {
  return std::make_unique<SerialExecutor>();
}

}  // namespace mce::exec
