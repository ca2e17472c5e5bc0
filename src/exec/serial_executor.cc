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
    LevelScope scope{&g, prep.map(), 0, {}, {}};
    const Graph* current = &prep.pipeline_graph();
    // The serial walk never stalls or spills (its live set is already
    // O(graph + one block)), but it makes the same charges the pooled
    // engine does so peak_tracked_bytes is comparable across executors.
    MemoryBudget& budget = reporter.budget();
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
    const uint64_t pipeline_graph_bytes = current->ResidentBytes();
    budget.Charge(pipeline_graph_bytes);
    uint64_t level_graph_bytes = 0;  // the current owned level graph
    Graph owned;  // deeper levels own the hub-induced subgraph
    std::vector<NodeId> hubs;  // the parent level's, for levels >= 1

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
      // The block is live for exactly this call (RunBlockTask charges its
      // workspace while it analyzes): the pooled engine's charges.
      const uint64_t block_bytes = block.EstimatedBytes();
      budget.Charge(block_bytes);
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
      budget.Release(block_bytes);
      if (options.block_observer) options.block_observer(record);
    };

    for (uint32_t level = 0;; ++level) {
      // The level's DecomposeTask window covers the induce (levels >= 1),
      // CUT, the block growth and the level's analysis: the inline
      // BlockTask (or fallback) windows nest inside it on this thread, so
      // its span's self time and counters hold only the decompose's own
      // work.
      TaskWindow decompose_window(reporter);
      if (progress != nullptr) progress->BeginLevel(level);
      if (level > 0) {
        // Recursive step: continue on the hub-induced subgraph.
        InducedSubgraph sub = Induce(*current, hubs);
        scope = ChildScope(scope, sub.to_parent);
        // Parent and child graphs overlap until the move below frees the
        // parent, so the child is charged before the parent is released.
        // The level's Lemma-1 rows are charged until its analysis ends.
        const uint64_t next_graph_bytes = sub.graph.ResidentBytes();
        budget.Charge(next_graph_bytes + scope.maximality.Bytes());
        owned = std::move(sub.graph);
        budget.Release(level_graph_bytes);
        level_graph_bytes = next_graph_bytes;
        current = &owned;
      }
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
      budget.Release(scope.maximality.Bytes());
      scope.maximality = decomp::MaximalityIndex();
      reporter.Close(decompose_window,
                     MakeDecomposeSpan(scope.level, *current, cut));
      out.levels.push_back(reporter.FinishLevel(scope.level, 1));
      if (fallback || cut.hubs.empty()) break;
      hubs = std::move(cut.hubs);
    }
    // As on the pooled engine, nothing stays charged past the run, so the
    // final heartbeat reads the run's peak with nothing charged.
    budget.Release(level_graph_bytes);
    budget.Release(pipeline_graph_bytes);
    reporter.FinishRun(&out);
    return out;
  }
};

}  // namespace

std::unique_ptr<Executor> MakeSerialExecutor() {
  return std::make_unique<SerialExecutor>();
}

}  // namespace mce::exec
