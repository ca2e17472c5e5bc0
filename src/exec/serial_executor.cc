// SerialExecutor: depth-first execution of the task graph on the calling
// thread. DecomposeTask(h) streams its blocks and each BlockTask runs the
// moment its block finishes growing, emitting each clique as it passes
// the per-clique Lemma-1 step — so at most one block (plus the level
// graph) is alive at a time and the memory profile is O(graph + largest
// block).

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
#include "util/timer.h"

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
    const reduce::ReductionMap* const expansion = prep.map();
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
    std::vector<NodeId> to_original;  // empty means identity (level 0)
    uint32_t level = 0;
    Clique scratch;
    Clique expand_scratch;

    const decomp::BlocksOptions blocks_options = BlocksOptionsFor(options);
    const decomp::BlockAnalysisOptions analysis_options =
        AnalysisOptionsFor(options);

    auto deliver = [&](std::span<const NodeId> c) {
      const bool kept = MapExpandAndFilterClique(
          g, c, to_original, level, expansion, &expand_scratch, &scratch);
      // Level 0 needs no maximality check, so only deeper levels count as
      // filter work.
      if (level > 0) reporter.RecordFilter(1, kept ? 1 : 0);
      if (kept) {
        ++out.cliques_emitted;
        if (progress != nullptr) progress->AddCliques(1);
        emit(scratch, level);
      }
    };

    for (;;) {
      decomp::LevelStats stats;
      stats.num_nodes = current->num_nodes();
      stats.num_edges = current->num_edges();
      // One worker (this thread) runs everything; JSON consumers divide by
      // this, so it must never read 0.
      stats.analyze_threads = 1;

      // The level's DecomposeTask window covers CUT plus the block growth.
      // The inline BlockTask windows nest inside it on this thread, so its
      // counters hold only the decompose's self work.
      TaskWindow decompose_window(reporter);
      if (progress != nullptr) progress->BeginLevel(level);
      // The decompose clock accumulates Cut plus the block-growth
      // segments between block emissions.
      Timer segment;
      decomp::CutResult cut = decomp::Cut(*current, options.max_block_size);
      stats.feasible = cut.feasible.size();
      stats.hubs = cut.hubs.size();

      if (cut.feasible.empty() && current->num_nodes() > 0) {
        // Sparsity precondition violated: the remaining graph is its own
        // m-core. Enumerate it directly as one indivisible task.
        out.used_fallback = true;
        stats.decompose_seconds = segment.ElapsedSeconds();
        reporter.Close(decompose_window,
                       [&] { return MakeDecomposeSpan(level, stats); });
        RunFallbackTask(*current, level, reporter, progress, deliver, &stats);
        out.levels.push_back(stats);
        if (progress != nullptr) progress->FinishLevel(level);
        break;
      }

      uint64_t produced = 0;
      uint64_t block_index = 0;
      decomp::BuildBlocksStreaming(
          *current, cut.feasible, blocks_options,
          [&](decomp::Block&& block) {
            stats.decompose_seconds += segment.ElapsedSeconds();
            // The block plus its analysis workspace are live for exactly
            // this callback.
            const uint64_t block_charge =
                block.EstimatedBytes() + EstimateAnalysisBytes(block);
            charge(block_charge);
            // One feature pass serves every consumer: the classification
            // the analysis runs, the progress denominator (registered
            // before the analysis so a sampler sees the work as pending,
            // not invisible), the observer record, and the block span.
            // The serial walk never reorders or splits, but plans blocks
            // exactly as the pooled engine does.
            const BlockPlan plan = PlanBlock(block, analysis_options);
            if (progress != nullptr) progress->RegisterBlock(level, plan.cost);
            TaskWindow block_window(reporter);
            Timer block_timer;
            decomp::BlockAnalysisResult result = decomp::AnalyzeBlock(
                block, plan.used, deliver, &workspace,
                decomp::KernelRange{0, block.kernel_local.size()});
            const double block_seconds = block_timer.ElapsedSeconds();
            budget.Release(block_charge);
            reporter.Close(block_window, [&] {
              return MakeBlockSpan(block, result, level, block_index,
                                   plan.cost);
            });
            reporter.RecordBlock(block, result, block_seconds);
            produced += result.num_cliques;
            stats.block_seconds += block_seconds;
            stats.analyze_seconds += block_seconds;
            if (options.block_observer) {
              options.block_observer(
                  MakeBlockTaskRecord(block, result, block_seconds, level,
                                      block_index, plan.cost));
            }
            if (progress != nullptr) {
              progress->RetireBlock(level, plan.cost);
            }
            ++block_index;
            segment.Reset();
          });
      stats.decompose_seconds += segment.ElapsedSeconds();
      stats.blocks = block_index;
      stats.cliques = produced;
      stats.busiest_worker_seconds = stats.block_seconds;
      reporter.Close(decompose_window,
                     [&] { return MakeDecomposeSpan(level, stats); });
      out.levels.push_back(stats);
      if (progress != nullptr) progress->FinishLevel(level);

      if (cut.hubs.empty()) break;

      // Recursive step: continue on the hub-induced subgraph.
      InducedSubgraph sub = Induce(*current, cut.hubs);
      to_original = ComposeToOriginal(to_original, sub.to_parent);
      // Parent and child graphs overlap until the move below frees the
      // parent, so the child is charged before the parent is released.
      const uint64_t next_graph_bytes = sub.graph.ResidentBytes();
      charge(next_graph_bytes);
      owned = std::move(sub.graph);
      budget.Release(level_graph_bytes);
      level_graph_bytes = next_graph_bytes;
      current = &owned;
      ++level;
    }
    out.memory.budget_bytes = budget.limit();
    out.memory.peak_tracked_bytes = budget.peak();
    reporter.FinishRun(&out);
    if (progress != nullptr) {
      progress->MarkComplete();
      out.progress = progress->Accounting();
    }
    return out;
  }
};

}  // namespace

std::unique_ptr<Executor> MakeSerialExecutor() {
  return std::make_unique<SerialExecutor>();
}

}  // namespace mce::exec
