#include "exec/task_graph.h"

#include <cstddef>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "decision/block_cost.h"
#include "decomp/cut.h"
#include "gen/generators.h"
#include "gen/special.h"
#include "test_util.h"
#include "util/random.h"

namespace mce::exec {
namespace {

TEST(FilterChunksTest, EmptyPendingProducesNoChunks) {
  EXPECT_TRUE(FilterChunks(0, 1).empty());
  EXPECT_TRUE(FilterChunks(0, 8).empty());
  EXPECT_TRUE(FilterChunks(0, 0).empty());
}

TEST(FilterChunksTest, TinyLevelsNeverExceedItemCount) {
  // A tiny pending set with many workers must not be split into empty or
  // degenerate chunks (the num_threads * 4 sizing guard).
  for (size_t items : {1, 2, 3, 7}) {
    for (size_t workers : {1, 4, 8, 64}) {
      const auto chunks = FilterChunks(items, workers);
      EXPECT_LE(chunks.size(), items);
      size_t expected_begin = 0;
      for (const auto& [begin, end] : chunks) {
        EXPECT_EQ(begin, expected_begin);
        EXPECT_LT(begin, end);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, items);
    }
  }
}

TEST(FilterChunksTest, LargeLevelsUseFourChunksPerWorker) {
  const auto chunks = FilterChunks(1000, 4);
  EXPECT_EQ(chunks.size(), 16u);
  EXPECT_EQ(chunks.front().first, 0u);
  EXPECT_EQ(chunks.back().second, 1000u);
  size_t expected_begin = 0;
  for (const auto& [begin, end] : chunks) {
    EXPECT_EQ(begin, expected_begin);
    expected_begin = end;
  }
}

TEST(FilterChunksTest, ZeroWorkersAreClampedToOne) {
  const auto chunks = FilterChunks(100, 0);
  EXPECT_EQ(chunks.size(), 4u);
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

}  // namespace
}  // namespace mce::exec
