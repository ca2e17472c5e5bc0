#include "exec/task_graph.h"

#include <cstddef>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "decision/block_cost.h"
#include "decision/decision_tree.h"
#include "decomp/block_analysis.h"
#include "decomp/blocks.h"
#include "decomp/cut.h"
#include "gen/generators.h"
#include "gen/social.h"
#include "gen/special.h"
#include "graph/subgraph.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "test_util.h"
#include "util/memory_budget.h"
#include "util/random.h"

namespace mce::exec {
namespace {

// The emission-time plan must be exactly what scoring and analyzing the
// block on its own would give: the cost model's score and the combination
// AnalyzeBlock's own bestfit reports — tree leaves, the dense-storage
// guard and the seeded-algorithm substitution included.
TEST(PlanBlockTest, MatchesCostModelAndAnalyzeBlockClassification) {
  const Graph g = gen::GenerateSocialNetwork(gen::FacebookConfig(0.02));
  const uint32_t m = 40;
  decomp::BlocksOptions blocks_options;
  blocks_options.max_block_size = m;
  const std::vector<decomp::Block> blocks =
      decomp::BuildBlocks(g, decomp::Cut(g, m).feasible, blocks_options);
  ASSERT_GT(blocks.size(), 10u);

  // #nodes > 20 ? (#edges > 150 ? Bitset/Tomita : Matrix/Eppstein)
  //             : Lists/XPivot
  using Node = decision::DecisionTree::Node;
  std::vector<Node> nodes(5);
  nodes[0] = {false, decision::FeatureId::kNumNodes, 20, 1, 2, {}};
  nodes[1] = {false, decision::FeatureId::kNumEdges, 150, 3, 4, {}};
  nodes[2].options = {Algorithm::kXPivot, StorageKind::kAdjacencyList};
  nodes[3].options = {Algorithm::kTomita, StorageKind::kBitset};
  nodes[4].options = {Algorithm::kEppstein, StorageKind::kMatrix};
  const decision::DecisionTree tree(nodes);

  decomp::BlockAnalysisOptions classified;
  classified.tree = &tree;
  decomp::BlockAnalysisOptions guarded;
  guarded.fixed = {Algorithm::kBKPivot, StorageKind::kMatrix};
  guarded.max_storage_bytes = 256;  // only the smallest blocks stay dense
  size_t seen[3] = {0, 0, 0};
  for (const decomp::BlockAnalysisOptions& options : {classified, guarded}) {
    for (const decomp::Block& block : blocks) {
      const BlockPlan plan = PlanBlock(block, options);
      EXPECT_EQ(plan.cost, decision::EstimateBlockCost(block.subgraph.graph));
      uint64_t cliques = 0;
      const CliqueCallback count = [&cliques](std::span<const NodeId>) {
        ++cliques;
      };
      const decomp::BlockAnalysisResult own =
          decomp::AnalyzeBlock(block, options, count);
      EXPECT_EQ(plan.used.algorithm, own.used.algorithm);
      EXPECT_EQ(plan.used.storage, own.used.storage);
      ++seen[static_cast<int>(plan.used.storage)];
      // Running the plan reproduces the self-classified analysis.
      const uint64_t own_cliques = cliques;
      cliques = 0;
      const decomp::BlockAnalysisResult planned = decomp::AnalyzeBlock(
          block, plan.used, count, nullptr,
          decomp::KernelRange{0, block.kernel_local.size()});
      EXPECT_EQ(planned.num_cliques, own.num_cliques);
      EXPECT_EQ(cliques, own_cliques);
    }
  }
  // Every storage kind was planned at least once.
  EXPECT_GT(seen[0], 0u);
  EXPECT_GT(seen[1], 0u);
  EXPECT_GT(seen[2], 0u);
}

TEST(ChildScopeTest, LevelOneMapsThroughToParent) {
  const Graph g = gen::Complete(10);
  const std::vector<NodeId> to_parent = {4, 2, 9};
  const LevelScope level1 =
      ChildScope(LevelScope{&g, nullptr, 0, {}, {}}, to_parent);
  EXPECT_EQ(level1.level, 1u);
  EXPECT_EQ(level1.to_original, to_parent);
}

TEST(ChildScopeTest, ComposesThroughParentIds) {
  // Parent node i is original node parent.to_original[i]; composing maps
  // level ids all the way back to original ids.
  const Graph g = gen::Complete(50);
  const LevelScope parent{&g, nullptr, 1, {10, 20, 30, 40}, {}};
  const LevelScope child = ChildScope(parent, {3, 1});
  EXPECT_EQ(child.level, 2u);
  EXPECT_EQ(child.to_original, (std::vector<NodeId>{40, 20}));
}

TEST(MapExpandAndFilterCliqueTest, LevelZeroSortsAndAlwaysKeeps) {
  Graph triangle = gen::Complete(3);
  const LevelScope scope{&triangle, nullptr, 0, {}, {}};
  Clique scratch;
  Clique out;
  const std::vector<NodeId> ids = {2, 0};
  // {0, 2} is not maximal in the triangle, but level-0 cliques are maximal
  // by construction and must not be re-filtered.
  EXPECT_TRUE(MapExpandAndFilterClique(scope, ids, &scratch, &out));
  EXPECT_EQ(out, (Clique{0, 2}));
}

// Level 1 as the executors build it: its rows (3 rows of one word, 24 B,
// against 4 * 6 B of adjacency) are admitted, and the per-clique step
// gives the same answers with and without them.
TEST(MapExpandAndFilterCliqueTest, DeeperLevelsApplyLemmaOne) {
  Graph triangle = gen::Complete(3);
  const LevelScope scope =
      ChildScope(LevelScope{&triangle, nullptr, 0, {}, {}}, {2, 0, 1});
  EXPECT_EQ(scope.level, 1u);
  EXPECT_EQ(scope.to_original, (std::vector<NodeId>{2, 0, 1}));
  ASSERT_TRUE(scope.maximality.built());
  EXPECT_EQ(scope.maximality.Bytes(),
            3 * sizeof(uint64_t) + 3 * sizeof(NodeId));
  LevelScope merge_path = scope;
  merge_path.maximality = decomp::MaximalityIndex();
  const LevelScope* const paths[] = {&scope, &merge_path};
  for (const LevelScope* s : paths) {
    SCOPED_TRACE(s->maximality.built() ? "rows" : "merge");
    Clique scratch;
    Clique out;
    // Level ids {0, 1} -> original {2, 0}: extendable by node 1 -> dropped.
    EXPECT_FALSE(MapExpandAndFilterClique(*s, std::vector<NodeId>{0, 1},
                                          &scratch, &out));
    // The full triangle survives, translated and sorted.
    EXPECT_TRUE(MapExpandAndFilterClique(*s, std::vector<NodeId>{1, 2, 0},
                                         &scratch, &out));
    EXPECT_EQ(out, (Clique{0, 1, 2}));
  }
}

TEST(BuildBlocksStreamingTest, EmissionOrderMatchesBatchBuild) {
  Rng rng(41);
  Graph g = gen::BarabasiAlbert(80, 3, &rng);
  decomp::CutResult cut = decomp::Cut(g, 12);
  ASSERT_FALSE(cut.feasible.empty());
  decomp::BlocksOptions options;
  options.max_block_size = 12;
  const std::vector<decomp::Block> batch =
      decomp::BuildBlocks(g, cut.feasible, options);
  std::vector<decomp::Block> streamed;
  decomp::BuildBlocksStreaming(
      g, cut.feasible, options,
      [&streamed](decomp::Block&& b) { streamed.push_back(std::move(b)); });
  ASSERT_EQ(streamed.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(streamed[i].subgraph.to_parent, batch[i].subgraph.to_parent);
    EXPECT_EQ(streamed[i].roles, batch[i].roles);
    EXPECT_EQ(streamed[i].kernel_local, batch[i].kernel_local);
    EXPECT_EQ(streamed[i].num_edges(), batch[i].num_edges());
  }
}

// The one BlockTask body, run on the blocks of a real level 1 (G_1
// induced on the hubs of G_0): the record carries the block's shape and
// the plan, `keep` receives exactly what the per-clique step keeps, and
// the closed span counts those survivors.
TEST(RunBlockTaskTest, RecordKeepAndSpanMatchTheBlockAndPlan) {
  const Graph g = gen::GenerateSocialNetwork(gen::FacebookConfig(0.02));
  const uint32_t m = 40;
  const decomp::CutResult cut0 = decomp::Cut(g, m);
  const InducedSubgraph level1 = Induce(g, cut0.hubs);
  const LevelScope scope =
      ChildScope(LevelScope{&g, nullptr, 0, {}, {}}, level1.to_parent);
  ASSERT_TRUE(scope.maximality.built());
  decomp::BlocksOptions blocks_options;
  blocks_options.max_block_size = m;
  const std::vector<decomp::Block> blocks = decomp::BuildBlocks(
      level1.graph, decomp::Cut(level1.graph, m).feasible, blocks_options);
  ASSERT_FALSE(blocks.empty());

  obs::TraceRecorder recorder;
  decomp::FindMaxCliquesOptions options;
  options.trace = &recorder;
  RunReporter reporter(options);
  BlockWorkspace workspace;
  uint64_t enumerated_total = 0, kept_total = 0;
  for (size_t i = 0; i < blocks.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "block " << i);
    const decomp::Block& block = blocks[i];
    const BlockPlan plan = PlanBlock(block, AnalysisOptionsFor(options));
    // What the per-clique step keeps of the block's own enumeration.
    std::vector<Clique> want;
    uint64_t enumerated = 0;
    Clique scratch;
    Clique clique;
    decomp::AnalyzeBlock(
        block, plan.used,
        [&](std::span<const NodeId> c) {
          ++enumerated;
          if (MapExpandAndFilterClique(scope, c, &scratch, &clique)) {
            want.push_back(clique);
          }
        },
        nullptr, decomp::KernelRange{0, block.kernel_local.size()});

    std::vector<Clique> got;
    const decomp::BlockTaskRecord r =
        RunBlockTask(scope, block, plan, i, reporter, &workspace,
                     [&got](std::span<const NodeId> c) {
                       got.emplace_back(c.begin(), c.end());
                     });
    EXPECT_EQ(got, want);
    EXPECT_EQ(r.level, 1u);
    EXPECT_EQ(r.index, i);
    EXPECT_EQ(r.nodes, block.num_nodes());
    EXPECT_EQ(r.edges, block.num_edges());
    EXPECT_EQ(r.bytes, block.EstimatedBytes());
    EXPECT_EQ(r.cliques, enumerated);
    EXPECT_DOUBLE_EQ(r.estimated_cost, plan.cost);
    EXPECT_EQ(r.used.algorithm, plan.used.algorithm);
    EXPECT_EQ(r.used.storage, plan.used.storage);

    const std::vector<obs::TraceEvent> events = recorder.Events();
    ASSERT_EQ(events.size(), i + 1);
    const obs::TraceEvent& span = events.back();
    EXPECT_EQ(span.kind, obs::SpanKind::kBlock);
    EXPECT_EQ(span.level, 1u);
    EXPECT_EQ(span.index, i);
    EXPECT_EQ(span.args[3], enumerated);
    EXPECT_EQ(span.kept, want.size());
    EXPECT_DOUBLE_EQ(r.seconds,
                     static_cast<double>(span.end_us - span.begin_us) * 1e-6);
    enumerated_total += enumerated;
    kept_total += want.size();
  }
  // The Lemma-1 check both kept and dropped cliques.
  EXPECT_GT(kept_total, 0u);
  EXPECT_LT(kept_total, enumerated_total);
}

/// An analysis span as an executor closes it: `cliques` enumerated, `kept`
/// surviving the per-clique step, `cost` predicted.
obs::TraceEvent AnalysisSpan(obs::SpanKind kind, uint32_t level, uint64_t index,
                             uint64_t cliques, uint64_t kept, double cost) {
  obs::TraceEvent e;
  e.kind = kind;
  e.level = level;
  e.index = index;
  e.args[kind == obs::SpanKind::kBlock ? 3 : 2] = cliques;
  e.kept = kept;
  e.cost = cost;
  return e;
}

// The filter counters, progress retirement, the delivered-clique count and
// the level counts come from the spans RunReporter::Close folds: only
// levels >= 1 count filter work, every analysis span retires its block,
// and the delivered cliques are the analysis spans' kept cliques plus the
// ReduceTask's trivial ones.
TEST(RunReporterTest, CountersAndProgressComeFromClosedSpans) {
  obs::MetricsRegistry registry;
  obs::ProgressEstimator progress;
  decomp::FindMaxCliquesOptions options;
  options.metrics = &registry;
  options.progress = &progress;
  RunReporter reporter(options);
  const auto close = [&reporter](const obs::TraceEvent& e) {
    TaskWindow window(reporter);
    reporter.Close(window, e);
  };
  obs::TraceEvent reduce;
  reduce.kind = obs::SpanKind::kReduce;
  reduce.args[2] = 7;  // trivial cliques
  close(reduce);
  progress.RegisterBlock(0, 4.0);
  close(AnalysisSpan(obs::SpanKind::kBlock, 0, 0, 5, 5, 4.0));
  progress.RegisterBlock(1, 2.0);
  progress.RegisterBlock(1, 3.0);
  close(AnalysisSpan(obs::SpanKind::kBlock, 1, 0, 4, 1, 2.0));
  close(AnalysisSpan(obs::SpanKind::kBlock, 1, 1, 6, 1, 3.0));
  progress.RegisterBlock(2, 6.0);
  close(AnalysisSpan(obs::SpanKind::kFallback, 2, 0, 3, 2, 6.0));

  // Checked: 4 + 6 + 3 at levels >= 1; kept: 1 + 1 + 2.
  EXPECT_EQ(registry.GetCounter("exec.filter_cliques_checked").value(), 13u);
  EXPECT_EQ(registry.GetCounter("exec.filter_cliques_kept").value(), 4u);

  const obs::ProgressSnapshot snapshot = progress.TakeSnapshot();
  EXPECT_EQ(snapshot.blocks_done, snapshot.blocks);
  for (const obs::LevelProgress& level : snapshot.levels) {
    EXPECT_EQ(level.blocks_done, level.blocks) << "level " << level.level;
  }
  EXPECT_NEAR(progress.completed_cost(), progress.registered_cost(),
              1e-9 * progress.registered_cost());
  // Delivered: kept 5 + 1 + 1 + 2, plus 7 trivial.
  EXPECT_EQ(progress.cliques(), 16u);

  const decomp::LevelStats level0 = reporter.FinishLevel(0, 4);
  EXPECT_EQ(level0.blocks, 1u);
  EXPECT_EQ(level0.analyze_threads, 4u);
  const decomp::LevelStats level1 = reporter.FinishLevel(1, 4);
  EXPECT_EQ(level1.blocks, 2u);
  EXPECT_EQ(level1.cliques, 10u);
  const decomp::LevelStats level2 = reporter.FinishLevel(2, 4);
  EXPECT_EQ(level2.blocks, 0u);
  EXPECT_EQ(level2.cliques, 3u);
  EXPECT_EQ(level2.analyze_threads, 1u);

  decomp::StreamingStats stats;
  reporter.FinishRun(&stats);
  EXPECT_EQ(stats.cliques_emitted, 16u);
  EXPECT_EQ(registry.GetCounter("pipeline.cliques_emitted").value(), 16u);
}

// The reporter owns the run's memory accounting and folds each spill flush
// and admission stall once: every one lands exactly once in FinishRun's
// MemoryStats, the mem.* metrics, the progress snapshot and the trace, and
// mem.bytes_charged counts every byte charged to the reporter's budget.
TEST(RunReporterTest, SpillFlushesAndStallsAreCountedOnce) {
  obs::MetricsRegistry registry;
  obs::ProgressEstimator progress;
  obs::TraceRecorder recorder;
  decomp::FindMaxCliquesOptions options;
  options.metrics = &registry;
  options.progress = &progress;
  options.trace = &recorder;
  options.memory_budget_bytes = 1000;
  RunReporter reporter(options);
  MemoryBudget& budget = reporter.budget();
  budget.Charge(600);
  budget.Charge(300);
  budget.Release(700);
  budget.Charge(50);

  for (const uint64_t bytes : {100u, 28u}) {
    obs::TraceEvent flush;
    flush.kind = obs::SpanKind::kSpillFlush;
    flush.args[1] = bytes;
    reporter.RecordSpillFlush(flush);
  }
  reporter.RecordAdmissionStall(1, 10, 40, 512, 900);

  decomp::StreamingStats stats;
  reporter.FinishRun(&stats);
  const decomp::MemoryStats& mem = stats.memory;
  EXPECT_EQ(mem.budget_bytes, 1000u);
  EXPECT_EQ(mem.peak_tracked_bytes, 900u);
  EXPECT_EQ(mem.spill_chunks, 2u);
  EXPECT_EQ(mem.spill_bytes, 128u);
  EXPECT_EQ(mem.admission_stalls, 1u);
  EXPECT_DOUBLE_EQ(mem.admission_stall_seconds, 30e-6);

  EXPECT_EQ(registry.GetCounter("mem.bytes_charged").value(), 950u);
  EXPECT_EQ(registry.GetCounter("mem.spill_chunks").value(), 2u);
  EXPECT_EQ(registry.GetCounter("mem.spill_bytes").value(), 128u);
  EXPECT_EQ(registry.GetCounter("mem.admission_stalls").value(), 1u);
  EXPECT_EQ(registry.GetCounter("mem.admission_stall_micros").value(), 30u);

  const obs::ProgressSnapshot snapshot = progress.TakeSnapshot();
  EXPECT_EQ(snapshot.spill_chunks, 2u);
  EXPECT_EQ(snapshot.spill_bytes, 128u);

  uint64_t flush_spans = 0, flush_bytes = 0, stall_spans = 0;
  for (const obs::TraceEvent& e : recorder.Events()) {
    if (e.kind == obs::SpanKind::kSpillFlush) {
      ++flush_spans;
      flush_bytes += e.args[1];
    } else if (e.kind == obs::SpanKind::kAdmission) {
      ++stall_spans;
      EXPECT_EQ(e.level, 1u);
      EXPECT_EQ(e.args[0], 512u);
      EXPECT_EQ(e.args[1], 900u);
      EXPECT_EQ(e.args[2], 1000u);
    }
  }
  EXPECT_EQ(flush_spans, 2u);
  EXPECT_EQ(flush_bytes, 128u);
  EXPECT_EQ(stall_spans, 1u);
}

}  // namespace
}  // namespace mce::exec
