// SerialExecutor: depth-first execution of the task graph on the calling
// thread. DecomposeTask(h) streams its blocks and each BlockTask runs the
// moment its block finishes growing, with the FilterTask applied inline
// per clique — so at most one block (plus the level graph) is alive at a
// time and the memory profile is O(graph + largest block).

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "decision/block_cost.h"
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
    obs::TraceRecorder* const trace = ResolveTrace(options);
    RunMetrics metrics(ResolveMetrics(options));
    obs::ProgressEstimator* const progress = options.progress;
    const bool profile_on = options.profile;
    obs::ProfileAccumulator profile;
    decomp::StreamingStats out;
    // One workspace reused across every block of the run.
    BlockWorkspace workspace;
    // ReduceTask: when options.reduce is set the prepass emits the trivial
    // cliques right here and the level chain below starts from the
    // reduced graph; `g` stays the filter's reference graph.
    ReducePrepass prep;
    prep.Run(g, options, trace, metrics, emit, &out,
             profile_on ? &profile : nullptr);
    const reduce::ReductionMap* const expansion = prep.map();
    const Graph* current = &prep.pipeline_graph();
    // The serial walk never stalls or spills (its live set is already
    // O(graph + one block)), but it tracks the same charges the pooled
    // engine does so peak_tracked_bytes is comparable across executors.
    MemoryBudget budget(options.memory_budget_bytes);
    auto charge = [&](uint64_t bytes) {
      if (bytes == 0) return;
      budget.Charge(bytes);
      metrics.RecordCharge(bytes);
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
      if (level > 0) metrics.RecordFilter(1, kept ? 1 : 0);
      if (kept) {
        ++out.cliques_emitted;
        if (progress != nullptr) progress->AddCliques(1);
        emit(scratch, level);
      }
    };

    // Per-level counter state: the level window is read at decompose-span
    // close, and the nested block/fallback deltas are subtracted so the
    // decompose bucket holds only its *self* work — per-kind sums then
    // reproduce the run total exactly despite the nesting.
    obs::ScopedCounters level_counters;
    obs::CounterDelta level_children;

    // The decompose span of a level covers CUT plus the block growth; the
    // inline BlockTask spans nest inside it on this single track.
    auto record_decompose = [&](const decomp::LevelStats& stats,
                                int64_t begin_us) {
      obs::TraceEvent e;
      e.begin_us = begin_us;
      e.end_us = obs::NowMicros();
      e.kind = obs::SpanKind::kDecompose;
      e.level = level;
      e.args[0] = stats.num_nodes;
      e.args[1] = stats.num_edges;
      e.args[2] = stats.feasible;
      e.args[3] = stats.hubs;
      if (level_counters.active()) {
        obs::CounterDelta self = level_counters.Finish();
        self.SaturatingSubtract(level_children);
        e.prof = self;
        profile.Add(obs::SpanKind::kDecompose, level,
                    stats.decompose_seconds, 0, self);
      }
      if (trace != nullptr) trace->Record(e);
    };

    for (;;) {
      decomp::LevelStats stats;
      stats.num_nodes = current->num_nodes();
      stats.num_edges = current->num_edges();
      // One worker (this thread) runs everything; JSON consumers divide by
      // this, so it must never read 0.
      stats.analyze_threads = 1;

      const int64_t level_begin_us =
          trace != nullptr || profile_on ? obs::NowMicros() : 0;
      level_children = obs::CounterDelta();
      if (profile_on) level_counters.Begin();
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
        if (trace != nullptr || profile_on) {
          record_decompose(stats, level_begin_us);
        }
        const int64_t fallback_begin_us =
            trace != nullptr || profile_on ? obs::NowMicros() : 0;
        obs::ScopedCounters fallback_counters;
        if (profile_on) fallback_counters.Begin();
        double fallback_cost = 0;
        if (progress != nullptr) {
          // The fallback MCE is one indivisible unit of work; score it
          // with the same cost model as a block so the denominator stays
          // in one currency.
          fallback_cost = decision::EstimateBlockCost(*current);
          progress->RegisterBlock(level, fallback_cost);
        }
        Timer analyze_timer;
        uint64_t produced = 0;
        EnumerateMaximalCliques(*current, decomp::kFallbackMce,
                                [&](std::span<const NodeId> c) {
                                  ++produced;
                                  deliver(c);
                                });
        if (progress != nullptr) progress->RetireBlock(level, fallback_cost);
        stats.cliques = produced;
        stats.analyze_seconds = analyze_timer.ElapsedSeconds();
        stats.block_seconds = stats.analyze_seconds;
        stats.busiest_worker_seconds = stats.analyze_seconds;
        if (trace != nullptr || profile_on) {
          obs::TraceEvent e;
          e.begin_us = fallback_begin_us;
          e.end_us = obs::NowMicros();
          e.kind = obs::SpanKind::kFallback;
          e.level = level;
          e.args[0] = stats.num_nodes;
          e.args[1] = stats.num_edges;
          e.args[2] = produced;
          if (fallback_counters.active()) {
            e.prof = fallback_counters.Finish();
            profile.Add(obs::SpanKind::kFallback, level,
                        stats.analyze_seconds, produced, e.prof);
          }
          if (trace != nullptr) trace->Record(e);
        }
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
            const int64_t block_begin_us =
                trace != nullptr || profile_on ? obs::NowMicros() : 0;
            obs::ScopedCounters block_counters;
            if (profile_on) block_counters.Begin();
            Timer block_timer;
            decomp::BlockAnalysisResult result = decomp::AnalyzeBlock(
                block, plan.used, deliver, &workspace,
                decomp::KernelRange{0, block.kernel_local.size()});
            const double block_seconds = block_timer.ElapsedSeconds();
            budget.Release(block_charge);
            obs::CounterDelta block_delta;
            if (block_counters.active()) {
              block_delta = block_counters.Finish();
              profile.Add(obs::SpanKind::kBlock, level, block_seconds,
                          result.num_cliques, block_delta);
              level_children += block_delta;
            }
            if (trace != nullptr) {
              obs::TraceEvent e = MakeBlockSpan(
                  block_begin_us, obs::NowMicros(), block, result, level,
                  block_index);
              e.cost = plan.cost;
              e.prof = block_delta;
              trace->Record(e);
            }
            metrics.RecordBlock(block, result, block_seconds);
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
      if (trace != nullptr || profile_on) {
        record_decompose(stats, level_begin_us);
      }
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
    if (profile_on) out.profile = profile.Snapshot();
    metrics.RecordRun(out);
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
