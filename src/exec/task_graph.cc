#include "exec/task_graph.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "decision/block_cost.h"
#include "decision/features.h"
#include "mce/storage.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace mce::exec {

uint64_t EstimateAnalysisBytes(const decomp::Block& block) {
  // The block itself, the list backend's working set, and ~64 bytes of
  // recursion scratch per node (membership flags, candidate arrays,
  // translate tables across the recursion depth).
  return SaturatingAdd(
      SaturatingAdd(block.EstimatedBytes(),
                    EstimateStorageBytes(block.num_nodes(), block.num_edges(),
                                         StorageKind::kAdjacencyList)),
      SaturatingMul(block.num_nodes(), 64));
}

BlockPlan PlanBlock(const decomp::Block& block,
                    const decomp::BlockAnalysisOptions& options) {
  const Graph& g = block.subgraph.graph;
  const decision::BlockFeatures features =
      options.tree != nullptr ? decision::ComputeFeatures(g)
                              : decision::CostFeatures(g);
  return BlockPlan{decision::EstimateBlockCost(features),
                   decomp::SelectBlockMce(options, g, features)};
}

decomp::BlocksOptions BlocksOptionsFor(
    const decomp::FindMaxCliquesOptions& options) {
  decomp::BlocksOptions blocks_options;
  blocks_options.max_block_size = options.max_block_size;
  blocks_options.min_adjacency = options.min_adjacency;
  blocks_options.seed_policy = options.seed_policy;
  blocks_options.degeneracy_relabel = options.reduce;
  return blocks_options;
}

decomp::BlockAnalysisOptions AnalysisOptionsFor(
    const decomp::FindMaxCliquesOptions& options) {
  decomp::BlockAnalysisOptions analysis_options;
  analysis_options.tree = options.tree;
  analysis_options.fixed = options.fixed;
  return analysis_options;
}

LevelScope ChildScope(const LevelScope& parent,
                      const std::vector<NodeId>& to_parent) {
  std::vector<NodeId> to_original = to_parent;
  if (!parent.to_original.empty()) {
    for (NodeId& v : to_original) v = parent.to_original[v];
  }
  std::vector<NodeId> ids;
  if (parent.expansion != nullptr && parent.expansion->active()) {
    for (NodeId r : to_original) {
      const std::span<const NodeId> twins = parent.expansion->ClassOf(r);
      ids.insert(ids.end(), twins.begin(), twins.end());
    }
  } else {
    ids = to_original;
  }
  decomp::MaximalityIndex maximality =
      decomp::MaximalityIndex::Build(*parent.original, std::move(ids));
  return LevelScope{parent.original, parent.expansion, parent.level + 1,
                    std::move(to_original), std::move(maximality)};
}

bool MapExpandAndFilterClique(const LevelScope& scope,
                              std::span<const NodeId> level_ids,
                              Clique* scratch, Clique* out) {
  const bool expand =
      scope.expansion != nullptr && scope.expansion->active();
  // Without a reduction the translated ids are already original ids.
  Clique* mapped = expand ? scratch : out;
  mapped->clear();
  mapped->reserve(level_ids.size());
  if (scope.to_original.empty()) {
    mapped->assign(level_ids.begin(), level_ids.end());
  } else {
    for (NodeId v : level_ids) mapped->push_back(scope.to_original[v]);
  }
  // Expanding the twin classes yields sorted original ids, so the Lemma-1
  // check sees the same cliques it would without the prepass.
  if (!expand) {
    std::sort(out->begin(), out->end());
  } else if (!scope.expansion->ExpandClique(*scratch, out)) {
    return false;
  }
  if (scope.level == 0) return true;
  return scope.maximality.built()
             ? scope.maximality.IsMaximal(*out)
             : decomp::IsMaximalInGraph(*scope.original, *out);
}

namespace {

/// The observer record of a finished BlockTask.
decomp::BlockTaskRecord MakeBlockTaskRecord(
    const decomp::Block& block, const decomp::BlockAnalysisResult& result,
    double seconds, uint32_t level, uint64_t index, double estimated_cost) {
  decomp::BlockTaskRecord r;
  r.level = level;
  r.index = index;
  r.nodes = block.num_nodes();
  r.edges = block.num_edges();
  r.bytes = block.EstimatedBytes();
  r.cliques = result.num_cliques;
  r.estimated_cost = estimated_cost;
  r.seconds = seconds;
  r.used = result.used;
  return r;
}

/// A finished BlockTask's span: clique and kept counts, the MCE combination
/// that ran and the predicted cost, tagged with level and block index; the
/// kernel/border/visited sizes (a scan of the block) only with `roles`.
obs::TraceEvent MakeBlockSpan(const decomp::Block& block,
                              const decomp::BlockAnalysisResult& result,
                              uint32_t level, uint64_t index, double cost,
                              uint64_t kept, bool roles) {
  obs::TraceEvent e;
  e.kind = obs::SpanKind::kBlock;
  e.level = level;
  e.index = index;
  if (roles) {
    e.args[0] = block.CountRole(decomp::NodeRole::kKernel);
    e.args[1] = block.CountRole(decomp::NodeRole::kBorder);
    e.args[2] = block.CountRole(decomp::NodeRole::kVisited);
  }
  e.args[3] = result.num_cliques;
  e.kept = kept;
  e.algorithm = static_cast<uint8_t>(result.used.algorithm);
  e.storage = static_cast<uint8_t>(result.used.storage);
  e.cost = cost;
  return e;
}

}  // namespace

decomp::BlockTaskRecord RunBlockTask(const LevelScope& scope,
                                     const decomp::Block& block,
                                     const BlockPlan& plan, uint64_t index,
                                     RunReporter& reporter,
                                     BlockWorkspace* workspace,
                                     const CliqueCallback& keep) {
  TaskWindow window(reporter);
  // Workspaces belong to workers, not to blocks: only a running analysis
  // pins one.
  const uint64_t workspace_bytes =
      EstimateAnalysisBytes(block) - block.EstimatedBytes();
  reporter.budget().Charge(workspace_bytes);
  Clique scratch;
  Clique clique;
  uint64_t kept = 0;
  const decomp::BlockAnalysisResult result = decomp::AnalyzeBlock(
      block, plan.used,
      [&](std::span<const NodeId> c) {
        if (!MapExpandAndFilterClique(scope, c, &scratch, &clique)) return;
        ++kept;
        keep(clique);
      },
      workspace, decomp::KernelRange{0, block.kernel_local.size()});
  reporter.budget().Release(workspace_bytes);
  reporter.Close(window,
                 MakeBlockSpan(block, result, scope.level, index, plan.cost,
                               kept, reporter.exports_spans()));
  reporter.RecordBlock(block, result, window.Seconds());
  return MakeBlockTaskRecord(block, result, window.Seconds(), scope.level,
                             index, plan.cost);
}

void ReducePrepass::Run(const Graph& g,
                        const decomp::FindMaxCliquesOptions& options,
                        RunReporter& reporter,
                        const decomp::LeveledCliqueCallback& emit,
                        decomp::StreamingStats* out) {
  if (!options.reduce) {
    graph_ = &g;
    return;
  }
  TaskWindow window(reporter);
  result_ = reduce::ReduceGraph(g, reduce::ReduceOptions{});
  // Pre-scan proved the graph irreducible: no copy was made, the map is
  // inactive, and the pipeline runs on the input directly. Stats still
  // flow (enabled=true, zero removals) so --json shows the prepass ran.
  active_ = !result_.unchanged;
  graph_ = result_.unchanged ? &g : &result_.graph;
  out->reduction = result_.stats;
  // Trivial cliques lead the stream: every engine emits them here, on the
  // calling thread, before the root DecomposeTask produces anything — so
  // serial/pooled emission stays byte-identical with reduction on.
  for (size_t i = 0; i < result_.map.num_trivial_cliques(); ++i) {
    emit(result_.map.TrivialClique(i), 0);
  }
  obs::TraceEvent e;
  e.kind = obs::SpanKind::kReduce;
  e.args[0] = result_.stats.vertices_removed;
  e.args[1] = result_.stats.edges_removed;
  e.args[2] = result_.stats.trivial_cliques;
  e.args[3] = result_.stats.rounds;
  reporter.Close(window, e);
}

void RunFallbackTask(const LevelScope& scope, const Graph& graph,
                     RunReporter& reporter, obs::ProgressEstimator* progress,
                     const CliqueCallback& keep) {
  double cost = 0;
  if (progress != nullptr) {
    // One indivisible unit of work, scored with the block cost model so
    // the progress denominator stays in one currency.
    cost = decision::EstimateBlockCost(graph);
    progress->RegisterBlock(scope.level, cost);
  }
  TaskWindow window(reporter);
  Clique scratch;
  Clique clique;
  uint64_t produced = 0;
  uint64_t kept = 0;
  EnumerateMaximalCliques(graph, decomp::kFallbackMce,
                          [&](std::span<const NodeId> c) {
                            ++produced;
                            if (!MapExpandAndFilterClique(scope, c, &scratch,
                                                          &clique)) {
                              return;
                            }
                            ++kept;
                            keep(clique);
                          });
  obs::TraceEvent e;
  e.kind = obs::SpanKind::kFallback;
  e.level = scope.level;
  e.args[0] = graph.num_nodes();
  e.args[1] = graph.num_edges();
  e.args[2] = produced;
  e.kept = kept;
  e.cost = cost;
  reporter.Close(window, e);
}

obs::TraceRecorder* ResolveTrace(const decomp::FindMaxCliquesOptions& options) {
  return options.trace != nullptr ? options.trace
                                  : obs::TraceRecorder::installed();
}

obs::TraceEvent MakeDecomposeSpan(uint32_t level, const Graph& graph,
                                  const decomp::CutResult& cut) {
  obs::TraceEvent e;
  e.kind = obs::SpanKind::kDecompose;
  e.level = level;
  e.args[0] = graph.num_nodes();
  e.args[1] = graph.num_edges();
  e.args[2] = cut.feasible.size();
  e.args[3] = cut.hubs.size();
  return e;
}

namespace {

/// The innermost open counting TaskWindow of the calling thread.
thread_local TaskWindow* t_open_window = nullptr;

}  // namespace

TaskWindow::TaskWindow(const RunReporter& reporter)
    : begin_us_(obs::NowMicros()),
      lane_(static_cast<int>(ThreadPool::CurrentWorkerIndex())) {
  if (!reporter.profiling()) return;
  parent_ = t_open_window;
  t_open_window = this;
  counters_.Begin();
}

TaskWindow::~TaskWindow() {
  // Still counting means a task unwound by an exception before Close, so
  // this is the thread's innermost window: unlink it so the next window
  // cannot adopt a dead parent.
  if (counters_.active()) t_open_window = parent_;
}

void TaskWindow::Stop() {
  end_us_ = obs::NowMicros();
  if (!counters_.active()) return;
  t_open_window = parent_;
  const obs::CounterDelta full = counters_.Finish();
  if (parent_ != nullptr) parent_->children_ += full;
  self_ = full;
  self_.SaturatingSubtract(children_);
}

RunReporter::RunReporter(const decomp::FindMaxCliquesOptions& options)
    : trace_(ResolveTrace(options)),
      profiling_(options.profile),
      progress_(options.progress),
      budget_(options.memory_budget_bytes),
      registry_(options.metrics != nullptr
                    ? options.metrics
                    : obs::MetricsRegistry::installed()) {
  if (registry_ == nullptr) return;
  blocks_ = &registry_->GetCounter("exec.blocks_analyzed");
  block_cliques_ = &registry_->GetCounter("exec.block_cliques");
  filter_checked_ = &registry_->GetCounter("exec.filter_cliques_checked");
  filter_kept_ = &registry_->GetCounter("exec.filter_cliques_kept");
  levels_ = &registry_->GetCounter("pipeline.levels");
  cliques_emitted_ = &registry_->GetCounter("pipeline.cliques_emitted");
  fallback_runs_ = &registry_->GetCounter("pipeline.fallback_runs");
  const std::vector<double> node_bounds = obs::ExponentialBuckets(1, 2, 20);
  block_nodes_ = &registry_->GetHistogram("exec.block_nodes", node_bounds);
  const std::vector<double> density_bounds = obs::LinearBuckets(0.05, 0.05, 20);
  block_density_ =
      &registry_->GetHistogram("exec.block_density", density_bounds);
  const std::vector<double> ns_bounds = obs::ExponentialBuckets(16, 4, 16);
  block_ns_per_clique_ =
      &registry_->GetHistogram("exec.block_ns_per_clique", ns_bounds);
  const std::vector<double> chunk_bounds = obs::ExponentialBuckets(1024, 4, 16);
  mem_spill_chunk_bytes_ =
      &registry_->GetHistogram("mem.spill_chunk_bytes", chunk_bounds);
}

void RunReporter::Close(TaskWindow& window, obs::TraceEvent e) {
  window.Stop();
  MCE_DCHECK(obs::IsDagTask(e.kind));
  e.begin_us = window.begin_us_;
  e.end_us = window.end_us_;
  e.prof = window.self_;
  obs::TaskSpan span = obs::TaskSpanFromEvent(e);
  span.lane_tid = window.lane_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fold_.Add(span);
  }
  // The cliques this task hands to delivery: an analysis task's
  // survivors, the prepass's trivial cliques.
  uint64_t delivered = 0;
  if (obs::IsAnalysisTask(e.kind)) {
    delivered = span.kept;
    if (progress_ != nullptr) progress_->RetireBlock(e.level, e.cost);
    // Level-0 cliques are maximal by construction: only deeper levels run
    // the Lemma-1 check.
    if (registry_ != nullptr && e.level > 0) {
      filter_checked_->Add(span.cliques);
      filter_kept_->Add(span.kept);
    }
  } else if (e.kind == obs::SpanKind::kReduce) {
    delivered = span.cliques;
  }
  if (delivered > 0) {
    cliques_delivered_.fetch_add(delivered, std::memory_order_relaxed);
    if (progress_ != nullptr) progress_->AddCliques(delivered);
  }
  if (profiling_) profile_.Add(span);
  if (trace_ != nullptr) trace_->Record(e);
}

decomp::LevelStats RunReporter::FinishLevel(uint32_t level, uint32_t workers) {
  decomp::LevelStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats = fold_.Finish(level, workers);
  }
  if (progress_ != nullptr) progress_->FinishLevel(level);
  return stats;
}

void RunReporter::RecordAdmissionStall(uint32_t level, int64_t begin_us,
                                       int64_t end_us, uint64_t bytes,
                                       uint64_t charged) {
  admission_stalls_.fetch_add(1, std::memory_order_relaxed);
  admission_stall_micros_.fetch_add(static_cast<uint64_t>(end_us - begin_us),
                                    std::memory_order_relaxed);
  if (trace_ == nullptr) return;
  obs::TraceEvent e;
  e.begin_us = begin_us;
  e.end_us = end_us;
  e.kind = obs::SpanKind::kAdmission;
  e.level = level;
  e.args[0] = bytes;
  e.args[1] = charged;
  e.args[2] = budget_.limit();
  trace_->Record(e);
}

void RunReporter::RecordSpillFlush(const obs::TraceEvent& e) {
  MCE_DCHECK(e.kind == obs::SpanKind::kSpillFlush);
  const uint64_t bytes = e.args[1];
  spill_chunks_.fetch_add(1, std::memory_order_relaxed);
  spill_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (progress_ != nullptr) progress_->AddSpillChunk(bytes);
  if (registry_ != nullptr) {
    mem_spill_chunk_bytes_->Observe(static_cast<double>(bytes));
  }
  if (trace_ != nullptr) trace_->Record(e);
}

void RunReporter::RecordBlock(const decomp::Block& block,
                              const decomp::BlockAnalysisResult& result,
                              double seconds) {
  if (registry_ == nullptr) return;
  blocks_->Increment();
  block_cliques_->Add(result.num_cliques);
  const double n = static_cast<double>(block.num_nodes());
  block_nodes_->Observe(n);
  if (n >= 2) {
    block_density_->Observe(2.0 * static_cast<double>(block.num_edges()) /
                            (n * (n - 1.0)));
  }
  if (result.num_cliques > 0) {
    block_ns_per_clique_->Observe(
        seconds * 1e9 / static_cast<double>(result.num_cliques));
  }
}

void RunReporter::FinishRun(decomp::StreamingStats* out) {
  out->cliques_emitted = cliques_delivered_.load(std::memory_order_relaxed);
  decomp::MemoryStats& mem = out->memory;
  mem.budget_bytes = budget_.limit();
  mem.peak_tracked_bytes = budget_.peak();
  mem.spill_chunks = spill_chunks_.load(std::memory_order_relaxed);
  mem.spill_bytes = spill_bytes_.load(std::memory_order_relaxed);
  mem.admission_stalls = admission_stalls_.load(std::memory_order_relaxed);
  const uint64_t stall_micros =
      admission_stall_micros_.load(std::memory_order_relaxed);
  mem.admission_stall_seconds = static_cast<double>(stall_micros) * 1e-6;
  if (profiling_) out->profile = profile_.Snapshot();
  if (progress_ != nullptr) {
    progress_->MarkComplete();
    out->progress = progress_->Accounting();
  }
  if (registry_ == nullptr) return;
  levels_->Add(out->levels.size());
  cliques_emitted_->Add(out->cliques_emitted);
  if (out->used_fallback) fallback_runs_->Increment();
  // Once-per-run totals, resolved lazily: there is no hot path to pre-bind
  // these handles for.
  const auto add = [this](const char* name, uint64_t value) {
    registry_->GetCounter(name).Add(value);
  };
  add("mem.bytes_charged", budget_.total_charged());
  add("mem.spill_chunks", mem.spill_chunks);
  add("mem.spill_bytes", mem.spill_bytes);
  add("mem.admission_stalls", mem.admission_stalls);
  add("mem.admission_stall_micros", stall_micros);
  const reduce::ReductionStats& r = out->reduction;
  if (r.enabled) {
    add("reduce.isolated_removed", r.isolated_removed);
    add("reduce.degree1_removed", r.degree1_removed);
    add("reduce.dominated_removed", r.dominated_removed);
    add("reduce.twins_merged", r.twins_merged);
    add("reduce.vertices_removed", r.vertices_removed);
    add("reduce.edges_removed", r.edges_removed);
    add("reduce.trivial_cliques", r.trivial_cliques);
    add("reduce.suppressed_cliques", r.suppressed_cliques);
    add("reduce.rounds", r.rounds);
  }
  if (out->profile.enabled) {
    const obs::ProfileBucket& total = out->profile.total;
    add("obs.profile.spans", total.spans);
    add("obs.profile.cycles", total.counters.cycles);
    add("obs.profile.instructions", total.counters.instructions);
    add("obs.profile.cache_misses", total.counters.cache_misses);
    add("obs.profile.branch_misses", total.counters.branch_misses);
    add("obs.profile.task_clock_ns", total.counters.task_clock_ns);
    add("obs.profile.hardware_runs", out->profile.hardware ? 1 : 0);
  }
}

}  // namespace mce::exec
