// PooledExecutor: the task graph on a shared ThreadPool.
//
// Scheduling differences vs. the serial depth-first walk:
//  * BlockTasks are submitted the moment BuildBlocksStreaming emits each
//    block, so analysis starts while the level is still decomposing.
//  * Task granularity follows the block cost model (DESIGN.md §7): a block
//    is one analysis unit, blocks predicted below max_block_cost coalesce
//    into batches of a few times that much predicted work, and the pool
//    runs ready analysis tasks shallowest level first, then
//    largest-predicted-first.
//  * DecomposeTask(h+1) depends only on Cut(h)'s hub set, so it is
//    submitted before level h's blocks are even built — the next level's
//    induce/cut/build runs concurrently with the tail of level-h analysis
//    (the measured window is LevelStats::overlap_seconds). Decompositions
//    are the pool's first tier: every deeper level waits on them, so one
//    never queues behind analysis.
//  * Every BlockTask runs the serial executor's task body, RunBlockTask
//    (the per-clique Lemma-1 step included), buffers only the survivors
//    in the block's CliqueSink, keeps the block's observer record, and
//    frees its block, observed or not — so a level is ready the moment
//    its last block finishes.
//  * The memory budget is checked once per block, at emission: a block
//    whose charge would cross it is analyzed on the decompose worker, as
//    the serial walk does, so no pooled task ever waits on the budget.
//
// Delivery (cliques, observer records, stats) happens only on the calling
// thread, levels in order and blocks in decomposition order, off buffered
// per-block sinks and records — which is what makes the emission
// byte-identical to the serial executor.
//
// Timing: every task closes one window through the RunReporter, whose span
// fold (obs::LevelFold) yields each level's LevelStats at delivery and
// which retires progress and counts the filter work.
//
// Synchronization: all cross-task state hangs off LevelRun records owned
// by a deque guarded by one engine mutex. Tasks receive stable element
// pointers taken under the lock (deques never relocate elements); a
// task's unlocked reads are confined to data whose writers finished
// before the mutex-protected state transition the reader observed.

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "decomp/cut.h"
#include "exec/executor.h"
#include "graph/subgraph.h"
#include "mce/clique_sink.h"
#include "mce/workspace.h"
#include "util/check.h"
#include "util/memory_budget.h"
#include "util/thread_pool.h"

namespace mce::exec {

namespace {

/// One BlockTask from emission to delivery.
struct BlockExec {
  BlockExec(decomp::Block&& b, const BlockPlan& plan, uint64_t index,
            SpillContext* spill)
      : block(std::move(b)), cliques(spill) {
    record.index = index;
    record.estimated_cost = plan.cost;
    record.used = plan.used;
  }

  /// Materialized at emission, freed by the block's task when it ends.
  decomp::Block block;
  /// The observer record. Until the task runs it carries the emission-time
  /// plan: the decision::EstimateBlockCost score (dispatch order, the
  /// batching decision) and the classification the task runs; the task
  /// replaces it with the full record.
  decomp::BlockTaskRecord record;
  /// The block's surviving cliques (original ids, each sorted — the
  /// MapExpandAndFilterClique output), in emission order; spills past the
  /// level's threshold without changing replay order.
  CliqueSink cliques;
};

/// All state of one recursion level as it moves through the task graph.
struct LevelRun {
  /// The level, its original-id mapping and the Lemma-1 reference.
  LevelScope scope;
  Graph owned_graph;             // levels >= 1 own their induced subgraph
  const Graph* graph = nullptr;  // level 0 aliases the caller's graph
  /// owned_graph's tracked ResidentBytes; released in MaybeReleaseInputs.
  uint64_t graph_bytes = 0;
  /// Shared spill state of every sink this level creates: the engine's
  /// SpillConfig plus the level's running resident-byte total, which is
  /// what the per-level spill threshold is compared against.
  SpillContext spill;
  decomp::CutResult cut;
  bool has_child = false;
  bool child_induced = false;
  bool delivered = false;

  // BlockTask state. A deque so emitted tasks hold stable pointers while
  // the decompose task keeps appending.
  std::deque<BlockExec> execs;
  /// Tiny-block batch under construction (touched only by the level's
  /// decompose worker, before blocks_final). Blocks predicted under
  /// max_block_cost are coalesced into one pool task aimed at a multiple
  /// of that much work — dispatch overhead then scales with predicted
  /// work, not block count.
  std::vector<BlockExec*> batch;
  double batch_cost = 0;
  bool blocks_final = false;
  size_t blocks_done = 0;

  // m-core fallback: survivors buffered for calling-thread emission.
  std::unique_ptr<CliqueSink> fallback_cliques;

  bool ready = false;
};

class PooledEngine {
 public:
  PooledEngine(const Graph& g, const decomp::FindMaxCliquesOptions& options,
               size_t num_threads, const decomp::LeveledCliqueCallback& emit)
      : original_(g),
        options_(options),
        emit_(emit),
        blocks_options_(BlocksOptionsFor(options)),
        analysis_options_(AnalysisOptionsFor(options)),
        progress_(options.progress),
        reporter_(options),
        workspaces_(std::max<size_t>(1, num_threads)),
        pool_(std::max<size_t>(1, num_threads)) {
    spill_config_.dir = options.spill_dir;
    spill_config_.threshold_bytes = decomp::EffectiveSpillThreshold(options);
    spill_config_.budget = &reporter_.budget();
    spill_config_.record_flush = [this](const obs::TraceEvent& e) {
      reporter_.RecordSpillFlush(e);
    };
  }

  decomp::StreamingStats Run() {
    decomp::StreamingStats out;
    // Heartbeat gauges: pending pool tasks (each queued decomposition,
    // block or batch is one) and the budget's live charge and peak. The
    // closure captures `this`; the guard detaches it on every exit from
    // Run — including unwinds out of the user's emit callback — before
    // the engine (and its pool) dies under a live sampler; its last
    // sample is what the run's final heartbeat reports.
    obs::ScopedGaugeSource gauge_guard(progress_, [this] {
      obs::GaugeSample s;
      s.queue_depth = pool_.QueueDepth();
      s.mem_charged_bytes = reporter_.budget().charged();
      s.mem_peak_bytes = reporter_.budget().peak();
      return s;
    });
    // ReduceTask: runs on the calling thread before the root decompose is
    // even submitted, so the trivial cliques hold the same leading stream
    // positions as on the serial engine. The level chain decomposes the
    // reduced graph; original_ stays the Lemma-1 reference.
    prep_.Run(original_, options_, reporter_, emit_, &out);
    // The pipeline graph is resident for the whole run (an mmap-backed
    // graph reports zero here — its pages are reclaimable).
    const uint64_t pipeline_graph_bytes =
        prep_.pipeline_graph().ResidentBytes();
    reporter_.budget().Charge(pipeline_graph_bytes);
    auto root = std::make_unique<LevelRun>();
    root->scope = LevelScope{&original_, prep_.map(), 0, {}, {}};
    root->graph = &prep_.pipeline_graph();
    root->spill.config = &spill_config_;
    root->spill.level = 0;
    LevelRun* root_ptr = root.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      levels_.push_back(std::move(root));
    }
    pool_.Submit([this, root_ptr] { DecomposeTask(root_ptr, nullptr); });

    size_t next = 0;
    for (;;) {
      LevelRun* lr = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return (next < levels_.size() && levels_[next]->ready) ||
                 (chain_done_ && next >= levels_.size());
        });
        if (next >= levels_.size()) break;
        lr = levels_[next].get();
      }
      DeliverLevel(lr, out);
      {
        std::lock_guard<std::mutex> lock(mu_);
        lr->delivered = true;
        MaybeReleaseInputs(lr);
      }
      ++next;
    }
    pool_.Wait();
    reporter_.budget().Release(pipeline_graph_bytes);
    reporter_.FinishRun(&out);
    return out;
  }

 private:
  /// DecomposeTask(level): induce (levels >= 1), Cut, dispatch the child
  /// level's decompose, then stream blocks into BlockTasks.
  void DecomposeTask(LevelRun* lr, LevelRun* parent) {
    // The whole task — induce, cut, block growth, cost scoring, or the
    // m-core fallback — runs on this one worker in one window.
    TaskWindow window(reporter_);
    const uint32_t level = lr->scope.level;
    if (progress_ != nullptr) progress_->BeginLevel(level);
    if (parent != nullptr) {
      InducedSubgraph sub = Induce(*parent->graph, parent->cut.hubs);
      lr->scope = ChildScope(parent->scope, sub.to_parent);
      lr->owned_graph = std::move(sub.graph);
      lr->graph = &lr->owned_graph;
      lr->graph_bytes = lr->owned_graph.ResidentBytes();
      // The Lemma-1 rows stay charged until MarkReadyIfAnalyzed drops them.
      reporter_.budget().Charge(lr->graph_bytes +
                                lr->scope.maximality.Bytes());
      std::lock_guard<std::mutex> lock(mu_);
      parent->child_induced = true;
      MaybeReleaseInputs(parent);
    }
    const Graph& graph = *lr->graph;
    lr->cut = decomp::Cut(graph, options_.max_block_size);
    // Sparsity precondition violated: the level graph is its own m-core.
    const bool fallback = lr->cut.feasible.empty() && graph.num_nodes() > 0;

    if (!fallback && !lr->cut.hubs.empty()) {
      // Cross-level pipelining: the child depends only on this cut's hub
      // set, so its decomposition is dispatched before this level's
      // blocks are built, overlapping the tail of this level's analysis.
      auto child = std::make_unique<LevelRun>();
      child->scope = LevelScope{&original_, prep_.map(), level + 1, {}, {}};
      child->spill.config = &spill_config_;
      child->spill.level = level + 1;
      LevelRun* child_ptr = child.get();
      {
        std::lock_guard<std::mutex> lock(mu_);
        lr->has_child = true;
        levels_.push_back(std::move(child));
      }
      pool_.Submit([this, child_ptr, lr] { DecomposeTask(child_ptr, lr); });
    } else {
      std::lock_guard<std::mutex> lock(mu_);
      chain_done_ = true;
    }

    if (fallback) {
      // The FallbackTask runs here, on this worker; its survivors wait in
      // the level's fallback sink for calling-thread emission.
      lr->fallback_cliques = std::make_unique<CliqueSink>(&lr->spill);
      RunFallbackTask(lr->scope, graph, reporter_, progress_,
                      [lr](std::span<const NodeId> c) {
                        lr->fallback_cliques->AppendRaw(c);
                      });
      lr->fallback_cliques->Settle();
    } else {
      decomp::BuildBlocksStreaming(
          graph, lr->cut.feasible, blocks_options_,
          [this, lr](decomp::Block&& b) { EmitBlock(lr, std::move(b)); });
      // The tail batch flushes before blocks_final so every emitted block
      // has a task in flight when the readiness check below runs.
      FlushBatch(lr);
    }
    // The span folds before the level can be ready and delivered.
    reporter_.Close(window, MakeDecomposeSpan(level, graph, lr->cut));

    bool ready = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      lr->blocks_final = true;
      ready = MarkReadyIfAnalyzed(lr);
    }
    if (ready) cv_.notify_all();
  }

  /// Emission of one block by DecomposeTask(level): score it, charge it,
  /// then add it to the level's batch, submit it alone to the pool, or —
  /// when the charge would cross the budget — analyze it right here.
  void EmitBlock(LevelRun* lr, decomp::Block&& b) {
    // One feature pass, here on the decompose worker, fixes the dispatch
    // order, the batching decision and the classification before any
    // worker picks the block up.
    const BlockPlan plan = PlanBlock(b, analysis_options_);
    const double cost = plan.cost;
    // Registered at emission — before its task can run — so a progress
    // sampler sees the work as pending the moment it exists.
    if (progress_ != nullptr) progress_->RegisterBlock(lr->scope.level, cost);

    BlockExec* exec = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      exec = &lr->execs.emplace_back(std::move(b), plan, lr->execs.size(),
                                     &lr->spill);
    }
    // The run's one budget check, against the block with the workspace
    // its analysis will pin. The block is charged from here until its
    // task ends; RunBlockTask charges the workspace while it runs. A block
    // that would cross the budget takes the serial walk's step instead:
    // its task runs now, on this worker, nested in the decompose window,
    // so once the budget is full each decomposing level holds at most one
    // more block, and no task ever waits for memory.
    MemoryBudget& budget = reporter_.budget();
    const uint64_t bytes = EstimateAnalysisBytes(exec->block);
    if (budget.WouldExceed(bytes)) {
      const int64_t begin_us = obs::NowMicros();
      const uint64_t charged = budget.charged();
      // The pending batch holds its blocks' charges until it runs:
      // dispatch it first, or the budget stays full for the whole level.
      FlushBatch(lr);
      budget.Charge(exec->block.EstimatedBytes());
      BlockTask(lr, exec);
      reporter_.RecordAdmissionStall(lr->scope.level, begin_us,
                                     obs::NowMicros(), bytes, charged);
      return;
    }
    budget.Charge(exec->block.EstimatedBytes());
    const bool batching = options_.split_blocks &&
                          options_.max_block_cost > 0 &&
                          pool_.num_threads() > 1;
    if (batching && cost < options_.max_block_cost) {
      // Tiny block: coalesce instead of dispatching. The batch flushes
      // once it accumulates enough predicted work (and unconditionally at
      // decompose end), so tiny blocks never pay one handoff each.
      lr->batch.push_back(exec);
      lr->batch_cost += cost;
      // Large enough that dispatch and context-switch overhead is
      // amortized (tiny tasks on few cores otherwise spend more time in
      // handoffs than analysis), small enough that a level still breaks
      // into many independently schedulable tasks. Narrow pools coarsen
      // the batches further — with few workers there is little balancing
      // to gain, and handoff overhead dominates; wide pools keep them at
      // max_block_cost so every worker has work to pull.
      const double mult = pool_.num_threads() <= 4 ? 4.0 : 1.0;
      if (lr->batch_cost >= mult * options_.max_block_cost) FlushBatch(lr);
      return;
    }
    // Level h's analysis tasks are tier h + 1: behind every DecomposeTask
    // (unkeyed, tier 0) and ahead of every deeper level, since delivery is
    // level-ordered; within the level the highest predicted cost runs
    // first, so a giant block emitted last cannot serialize the level's
    // tail (DESIGN.md §7).
    pool_.Submit([this, lr, exec] { BlockTask(lr, exec); },
                 {lr->scope.level + 1, cost});
  }

  /// Submits the level's pending tiny-block batch as one pool task, keyed
  /// like a block with the batch's summed prediction as its cost. Runs on
  /// the level's decompose worker (the only writer of the batch fields).
  void FlushBatch(LevelRun* lr) {
    if (lr->batch.empty()) return;
    pool_.Submit(
        [this, lr, execs = std::move(lr->batch)] {
          for (BlockExec* exec : execs) BlockTask(lr, exec);
        },
        {lr->scope.level + 1, lr->batch_cost});
    lr->batch = {};
    lr->batch_cost = 0;
  }

  /// BlockTask(level, i): RunBlockTask into the block's sink, settles the
  /// sink's charge, then frees the block, releases its emission charge and
  /// advances the level's completion state. Runs on one of the engine's
  /// pool workers — queued, or inline on its level's decompose worker —
  /// whose workspace it uses.
  void BlockTask(LevelRun* lr, BlockExec* exec) {
    const size_t worker = ThreadPool::CurrentWorkerIndex();
    MCE_DCHECK_LT(worker, workspaces_.size());
    const BlockPlan plan{exec->record.estimated_cost, exec->record.used};
    exec->record = RunBlockTask(lr->scope, exec->block, plan,
                                exec->record.index, reporter_,
                                &workspaces_[worker],
                                [exec](std::span<const NodeId> c) {
                                  exec->cliques.AppendRaw(c);
                                });
    exec->cliques.Settle();
    // Delivery reads only the sink and the record, so the block goes now,
    // observed or not: the engine's live footprint stays near the serial
    // one-block-at-a-time profile.
    reporter_.budget().Release(exec->block.EstimatedBytes());
    exec->block = decomp::Block();

    bool ready = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++lr->blocks_done;
      ready = MarkReadyIfAnalyzed(lr);
    }
    if (ready) cv_.notify_all();
  }

  /// mu_ held. Marks the level ready once its decompose has emitted every
  /// block and the last of them has finished; true on that transition,
  /// which also drops the level's Lemma-1 rows: no clique of the level is
  /// checked after it.
  bool MarkReadyIfAnalyzed(LevelRun* lr) {
    if (!lr->blocks_final || lr->blocks_done != lr->execs.size()) {
      return false;
    }
    lr->ready = true;
    reporter_.budget().Release(lr->scope.maximality.Bytes());
    lr->scope.maximality = decomp::MaximalityIndex();
    return true;
  }

  /// Calling thread only. Emits the level's cliques, replays the stored
  /// observer records in block order, and finishes the level's stats.
  void DeliverLevel(LevelRun* lr, decomp::StreamingStats& out) {
    const uint32_t level = lr->scope.level;
    const CliqueCallback emit = [&](std::span<const NodeId> c) {
      emit_(c, level);
    };
    if (lr->fallback_cliques != nullptr) {
      out.used_fallback = true;
      lr->fallback_cliques->ForEach(emit);
    }
    // Blocks in decomposition order: the serial emission order.
    for (const BlockExec& exec : lr->execs) {
      exec.cliques.ForEach(emit);
      if (options_.block_observer) options_.block_observer(exec.record);
    }
    // Free the bulky per-level state now that it is delivered. Destroying
    // the sinks releases their residual byte accounting.
    lr->execs.clear();
    lr->fallback_cliques.reset();
    // Levels finish in delivery order, matching the serial walk.
    out.levels.push_back(reporter_.FinishLevel(
        level, static_cast<uint32_t>(pool_.num_threads())));
  }

  /// mu_ held. The level's graph feeds its child's Induce, so it is freed
  /// only once the level is delivered and the child (if any) has induced.
  void MaybeReleaseInputs(LevelRun* lr) {
    if (!lr->delivered) return;
    if (lr->has_child && !lr->child_induced) return;
    lr->owned_graph = Graph();
    lr->graph = nullptr;
    lr->cut = decomp::CutResult();
    lr->scope.to_original = {};
    reporter_.budget().Release(lr->graph_bytes);
    lr->graph_bytes = 0;
  }

  const Graph& original_;
  const decomp::FindMaxCliquesOptions& options_;
  const decomp::LeveledCliqueCallback& emit_;
  /// The ReduceTask's state; set once in Run() before any pipeline task
  /// is submitted, read-only afterwards (safe unlocked from workers).
  ReducePrepass prep_;
  const decomp::BlocksOptions blocks_options_;
  const decomp::BlockAnalysisOptions analysis_options_;
  /// Live progress accounting; null when the run is not observed.
  obs::ProgressEstimator* const progress_;
  // Declared before levels_: the sinks owned by LevelRun records release
  // against the reporter's budget in their destructors, so the reporter
  // and spill_config_ must outlive the level deque (members destroy in
  // reverse declaration order).
  RunReporter reporter_;
  SpillConfig spill_config_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<LevelRun>> levels_;
  bool chain_done_ = false;
  std::vector<BlockWorkspace> workspaces_;
  // Declared last: its destructor drains tasks that touch the state above.
  ThreadPool pool_;
};

class PooledExecutor final : public Executor {
 public:
  explicit PooledExecutor(size_t num_threads)
      : num_threads_(std::max<size_t>(1, num_threads)) {}

  decomp::StreamingStats Run(const Graph& g,
                             const decomp::FindMaxCliquesOptions& options,
                             const decomp::LeveledCliqueCallback& emit) override {
    MCE_CHECK_GE(options.max_block_size, 1u);
    PooledEngine engine(g, options, num_threads_, emit);
    return engine.Run();
  }

 private:
  size_t num_threads_;
};

}  // namespace

std::unique_ptr<Executor> MakePooledExecutor(size_t num_threads) {
  return std::make_unique<PooledExecutor>(num_threads);
}

}  // namespace mce::exec
