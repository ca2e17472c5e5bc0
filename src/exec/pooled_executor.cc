// PooledExecutor: the task graph on a shared ThreadPool.
//
// Scheduling differences vs. the serial depth-first walk:
//  * BlockTasks are submitted the moment BuildBlocksStreaming emits each
//    block, so analysis starts while the level is still decomposing.
//  * Task granularity follows the block cost model (DESIGN.md §7): a block
//    is one analysis unit, blocks predicted below max_block_cost coalesce
//    into batches of a few times that much predicted work, and ready tasks
//    dispatch shallowest level first, then largest-predicted-first.
//  * DecomposeTask(h+1) depends only on Cut(h)'s hub set, so it is
//    submitted before level h's blocks are even built — the next level's
//    induce/cut/build runs concurrently with the tail of level-h analysis
//    (the measured window is LevelStats::overlap_seconds).
//  * Every BlockTask runs the serial executor's task body, RunBlockTask
//    (the per-clique Lemma-1 step included), buffers only the survivors
//    in the block's CliqueSink, keeps the block's observer record, and
//    frees its block, observed or not — so a level is ready the moment
//    its last block finishes, and the budget gates every run alike.
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
#include <chrono>
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
        reporter_(options),
        progress_(options.progress),
        budget_(options.memory_budget_bytes),
        workspaces_(std::max<size_t>(1, num_threads)),
        pool_(std::max<size_t>(1, num_threads)) {
    spill_config_.dir = options.spill_dir;
    spill_config_.threshold_bytes = decomp::EffectiveSpillThreshold(options);
    spill_config_.budget = &budget_;
    spill_config_.trace = reporter_.trace();
    spill_config_.metrics = reporter_.SpillInstruments();
    spill_config_.progress = progress_;
  }

  decomp::StreamingStats Run() {
    decomp::StreamingStats out;
    // Heartbeat gauges: pending pool tasks (generic pulls included)
    // plus the cost-ordered analysis backlog, and the budget's live
    // charge. The closure captures `this`; the guard detaches it on every
    // exit from Run — including unwinds out of the user's emit callback —
    // before the engine (and its pool) dies under a live sampler.
    obs::ScopedGaugeSource gauge_guard(progress_, [this] {
      obs::GaugeSample s;
      s.queue_depth = pool_.QueueDepth() + queue_.Size();
      s.mem_charged_bytes = budget_.charged();
      s.mem_peak_bytes = budget_.peak();
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
    ChargeTracked(pipeline_graph_bytes);
    auto root = std::make_unique<LevelRun>();
    root->scope = LevelScope{&original_, prep_.map(), 0, {}};
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
    ReleaseTracked(pipeline_graph_bytes);
    out.memory.budget_bytes = budget_.limit();
    out.memory.peak_tracked_bytes = budget_.peak();
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
      lr->scope.to_original =
          ComposeToOriginal(parent->scope.to_original, sub.to_parent);
      lr->owned_graph = std::move(sub.graph);
      lr->graph = &lr->owned_graph;
      lr->graph_bytes = lr->owned_graph.ResidentBytes();
      ChargeTracked(lr->graph_bytes);
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
      child->scope = LevelScope{&original_, prep_.map(), level + 1, {}};
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

  /// Emission of one block by DecomposeTask(level): score it, then add it
  /// to the level's batch or dispatch it alone through the cost-ordered
  /// queue.
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
    // Materialized-block charge: the block exists from emission until its
    // task frees it. Gated like an analysis admission — while analyses
    // are in flight the decompose worker waits for their releases instead
    // of piling blocks past the budget; the tasks already dispatched for
    // earlier blocks keep the pool busy meanwhile.
    const uint64_t block_bytes = exec->block.EstimatedBytes();
    if (budget_.limited() && budget_.WouldExceed(block_bytes)) {
      // About to wait: dispatch the coalesced batch first, so every
      // charged block has a runnable analysis and the wait cannot starve
      // on blocks only this worker could have dispatched.
      FlushBatch(lr);
    }
    GateCharge(lr->scope.level, block_bytes, /*admit_analysis=*/false);
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
    queue_.Push(lr->scope.level, cost,
                [this, lr, exec] { BlockTask(lr, exec); });
    // One generic pull per queued task: the pool stays FIFO while the
    // queue decides which analysis task each freed worker runs —
    // shallowest level first, then highest predicted cost (DESIGN.md §7).
    pool_.Submit([this] { queue_.RunNext(); });
  }

  /// Dispatches the level's pending tiny-block batch as one pool task
  /// whose scheduling cost is the batch's summed prediction. Runs on the
  /// level's decompose worker (the only writer of the batch fields).
  void FlushBatch(LevelRun* lr) {
    if (lr->batch.empty()) return;
    const double cost = lr->batch_cost;
    queue_.Push(lr->scope.level, cost,
                [this, lr, execs = std::move(lr->batch)] {
                  for (BlockExec* exec : execs) BlockTask(lr, exec);
                });
    lr->batch = {};
    lr->batch_cost = 0;
    pool_.Submit([this] { queue_.RunNext(); });
  }

  /// BlockTask(level, i): RunBlockTask into the block's sink, then frees
  /// the block and advances the level's completion state.
  void BlockTask(LevelRun* lr, BlockExec* exec) {
    const size_t worker_index = ThreadPool::CurrentWorkerIndex();
    const size_t worker =
        worker_index == ThreadPool::kNotAWorker ? 0 : worker_index;
    // Budget admission: under a limit, a task whose workspace estimate
    // would push the tracked total past the budget waits for in-flight
    // analyses to finish. RunBlockTask opens the task window after the
    // stall, so a budget wait never shows up as analysis work.
    const uint64_t ws_bytes = EstimateAnalysisBytes(exec->block);
    AdmitAnalysis(lr->scope.level, ws_bytes);
    const BlockPlan plan{exec->record.estimated_cost, exec->record.used};
    exec->record = RunBlockTask(lr->scope, exec->block, plan,
                                exec->record.index, reporter_,
                                &workspaces_[worker],
                                [exec](std::span<const NodeId> c) {
                                  exec->cliques.AppendRaw(c);
                                });
    FinishAnalysis(ws_bytes);
    // Delivery reads only the sink and the record, so the block goes now,
    // observed or not: the engine's live footprint stays near the serial
    // one-block-at-a-time profile.
    ReleaseBlockCharge(exec->block.EstimatedBytes());
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
  /// block and the last of them has finished; true on that transition.
  bool MarkReadyIfAnalyzed(LevelRun* lr) {
    if (!lr->blocks_final || lr->blocks_done != lr->execs.size()) {
      return false;
    }
    lr->ready = true;
    return true;
  }

  /// Calling thread only. Emits the level's cliques, replays the stored
  /// observer records in block order, and finishes the level's stats.
  void DeliverLevel(LevelRun* lr, decomp::StreamingStats& out) {
    const uint32_t level = lr->scope.level;
    const CliqueCallback emit = [&](std::span<const NodeId> c) {
      emit_(c, level);
    };
    // Replays one sink and absorbs its spill totals before the sinks are
    // destroyed.
    const auto deliver = [&](const CliqueSink& sink) {
      sink.ForEach(emit);
      out.memory.spill_chunks += sink.spilled_chunks();
      out.memory.spill_bytes += sink.spilled_bytes();
    };
    if (lr->fallback_cliques != nullptr) {
      out.used_fallback = true;
      deliver(*lr->fallback_cliques);
    }
    // Blocks in decomposition order: the serial emission order.
    for (const BlockExec& exec : lr->execs) {
      deliver(exec.cliques);
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
    ReleaseTracked(lr->graph_bytes);
    lr->graph_bytes = 0;
  }

  /// Charges `bytes` against the budget and the mem.bytes_charged counter.
  void ChargeTracked(uint64_t bytes) {
    if (bytes == 0) return;
    budget_.Charge(bytes);
    reporter_.RecordCharge(bytes);
  }

  /// Releases `bytes` and wakes any admission waiter.
  void ReleaseTracked(uint64_t bytes) {
    if (bytes == 0) return;
    budget_.Release(bytes);
    if (budget_.limited()) admit_cv_.notify_all();
  }

  /// Admission gate for one analysis task's workspace charge. Under a
  /// budget, a task that would push the tracked total past the limit waits
  /// while other analyses are in flight — the first analysis always
  /// admits, so an undersized budget degrades to serial admission instead
  /// of deadlocking.
  void AdmitAnalysis(uint32_t level, uint64_t bytes) {
    GateCharge(level, bytes, /*admit_analysis=*/true);
  }

  /// The shared budget gate behind AdmitAnalysis and EmitBlock's
  /// materialized-block charge. Waits while charging `bytes` would cross
  /// the budget *and* something else holds gated bytes it will release.
  /// The two callers escape differently:
  ///  - an analysis waits only while other analyses run (in_flight > 0):
  ///    the first analysis always admits, so an undersized budget
  ///    degrades to serial admission instead of deadlocking;
  ///  - a decompose worker additionally waits while *materialized blocks*
  ///    are outstanding — every one of them has a dispatched analysis
  ///    (EmitBlock flushes its coalesce batch before gating) whose task
  ///    frees the block, so block emission is strictly budget-bound. It
  ///    parks on blocks only while another worker stays free to run those
  ///    analyses: once every other worker is a decompose parked here (or
  ///    on a single-worker pool), waiting would deadlock the pool, so it
  ///    charges through.
  /// The wait polls: sink flushes release budget without an engine
  /// notification, so a pure wait could miss its wakeup.
  void GateCharge(uint32_t level, uint64_t bytes, bool admit_analysis) {
    if (!budget_.limited()) {
      ChargeTracked(bytes);
      return;
    }
    {
      std::unique_lock<std::mutex> lock(admit_mu_);
      const bool may_park =
          !admit_analysis && parked_decomposes_ + 1 < pool_.num_threads();
      const auto must_wait = [&] {
        if (!budget_.WouldExceed(bytes)) return false;
        if (analyses_in_flight_ > 0) return true;
        return may_park && blocks_outstanding_ > 0;
      };
      if (must_wait()) {
        const int64_t begin_us = obs::NowMicros();
        if (may_park) ++parked_decomposes_;
        while (must_wait()) {
          admit_cv_.wait_for(lock, std::chrono::milliseconds(2));
        }
        if (may_park) --parked_decomposes_;
        reporter_.RecordAdmissionStall(level, begin_us, obs::NowMicros(),
                                       bytes, budget_.charged(),
                                       budget_.limit());
      }
      if (admit_analysis) {
        ++analyses_in_flight_;
      } else {
        ++blocks_outstanding_;
      }
      // Charged under admit_mu_: were the charge outside, every waiter
      // released by one budget check could charge concurrently and
      // overshoot together — the check and the charge must be atomic.
      ChargeTracked(bytes);
    }
  }

  /// Releases a materialized block's charge and its outstanding slot.
  void ReleaseBlockCharge(uint64_t bytes) {
    if (budget_.limited()) {
      std::lock_guard<std::mutex> lock(admit_mu_);
      MCE_DCHECK(blocks_outstanding_ > 0);
      --blocks_outstanding_;
    }
    ReleaseTracked(bytes);
  }

  /// Releases an admitted analysis's workspace charge and its in-flight
  /// slot.
  void FinishAnalysis(uint64_t bytes) {
    ReleaseTracked(bytes);
    if (budget_.limited()) {
      {
        std::lock_guard<std::mutex> lock(admit_mu_);
        --analyses_in_flight_;
      }
      admit_cv_.notify_all();
    }
  }

  const Graph& original_;
  const decomp::FindMaxCliquesOptions& options_;
  const decomp::LeveledCliqueCallback& emit_;
  /// The ReduceTask's state; set once in Run() before any pipeline task
  /// is submitted, read-only afterwards (safe unlocked from workers).
  ReducePrepass prep_;
  const decomp::BlocksOptions blocks_options_;
  const decomp::BlockAnalysisOptions analysis_options_;
  RunReporter reporter_;
  /// Live progress accounting; null when the run is not observed.
  obs::ProgressEstimator* const progress_;

  // Memory accounting. Declared before levels_: the sinks owned by
  // LevelRun records release against budget_ in their destructors, so the
  // budget must outlive the level deque (members destroy in reverse
  // declaration order).
  MemoryBudget budget_;
  SpillConfig spill_config_;
  std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  size_t analyses_in_flight_ = 0;   // admit_mu_
  size_t blocks_outstanding_ = 0;   // admit_mu_; blocks charged, not freed
  size_t parked_decomposes_ = 0;    // admit_mu_; waiting on those blocks

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<LevelRun>> levels_;
  bool chain_done_ = false;
  std::vector<BlockWorkspace> workspaces_;
  /// Ready analysis tasks (blocks and batches), dispatched shallowest level
  /// first, then largest predicted cost, by generic pull thunks on the
  /// pool.
  CostOrderedQueue queue_;
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
