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
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "test_util.h"
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

TEST(ComposeToOriginalTest, EmptyBaseIsIdentity) {
  const std::vector<NodeId> to_parent = {4, 2, 9};
  EXPECT_EQ(ComposeToOriginal({}, to_parent), to_parent);
}

TEST(ComposeToOriginalTest, ComposesThroughParentIds) {
  // Parent node i is original node base[i]; composing maps level ids all
  // the way back to original ids.
  const std::vector<NodeId> base = {10, 20, 30, 40};
  const std::vector<NodeId> to_parent = {3, 1};
  EXPECT_EQ(ComposeToOriginal(base, to_parent), (std::vector<NodeId>{40, 20}));
}

TEST(MapAndFilterCliqueTest, LevelZeroSortsAndAlwaysKeeps) {
  Graph triangle = gen::Complete(3);
  Clique out;
  const std::vector<NodeId> ids = {2, 0};
  // {0, 2} is not maximal in the triangle, but level-0 cliques are maximal
  // by construction and must not be re-filtered.
  EXPECT_TRUE(MapAndFilterClique(triangle, ids, {}, 0, &out));
  EXPECT_EQ(out, (Clique{0, 2}));
}

TEST(MapAndFilterCliqueTest, DeeperLevelsApplyLemmaOne) {
  Graph triangle = gen::Complete(3);
  const std::vector<NodeId> to_original = {2, 0, 1};
  Clique out;
  // Level ids {0, 1} -> original {2, 0}: extendable by node 1 -> dropped.
  EXPECT_FALSE(MapAndFilterClique(triangle, std::vector<NodeId>{0, 1},
                                  to_original, 1, &out));
  // The full triangle survives, translated and sorted.
  EXPECT_TRUE(MapAndFilterClique(triangle, std::vector<NodeId>{1, 2, 0},
                                 to_original, 1, &out));
  EXPECT_EQ(out, (Clique{0, 1, 2}));
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

TEST(MakeBlockTaskRecordTest, CarriesBlockShapeAndCostEstimate) {
  Rng rng(43);
  Graph g = gen::BarabasiAlbert(40, 3, &rng);
  decomp::CutResult cut = decomp::Cut(g, 10);
  decomp::BlocksOptions options;
  options.max_block_size = 10;
  std::vector<decomp::Block> blocks =
      decomp::BuildBlocks(g, cut.feasible, options);
  ASSERT_FALSE(blocks.empty());
  decomp::BlockAnalysisResult result;
  result.num_cliques = 7;
  result.used = {Algorithm::kXPivot, StorageKind::kMatrix};
  const double cost = decision::EstimateBlockCost(blocks[0].subgraph.graph);
  const decomp::BlockTaskRecord r =
      MakeBlockTaskRecord(blocks[0], result, 0.5, 2, 3, cost);
  EXPECT_EQ(r.level, 2u);
  EXPECT_EQ(r.index, 3u);
  EXPECT_EQ(r.nodes, blocks[0].num_nodes());
  EXPECT_EQ(r.edges, blocks[0].num_edges());
  EXPECT_EQ(r.bytes, blocks[0].EstimatedBytes());
  EXPECT_EQ(r.cliques, 7u);
  EXPECT_DOUBLE_EQ(r.estimated_cost, cost);
  EXPECT_DOUBLE_EQ(r.seconds, 0.5);
  EXPECT_EQ(r.used.algorithm, Algorithm::kXPivot);
  EXPECT_EQ(r.used.storage, StorageKind::kMatrix);
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

// The filter counters, progress retirement and the level counts come from
// the spans RunReporter::Close folds: only levels >= 1 count filter work,
// and every analysis span retires its block.
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
}

}  // namespace
}  // namespace mce::exec
