#include "core/max_clique_finder.h"

#include <vector>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "mce/naive.h"
#include "test_util.h"
#include "util/random.h"

namespace mce {
namespace {

TEST(MaxCliqueFinderTest, DefaultOptionsFindAllCliques) {
  Rng rng(91);
  Graph g = gen::BarabasiAlbert(70, 3, &rng);
  MaxCliqueFinder finder;
  Result<FindResult> result = finder.Find(g);
  ASSERT_TRUE(result.ok()) << result.status();
  mce::test::ExpectMatchesNaive(g, result->cliques);
  EXPECT_GT(result->effective_block_size, 0u);
  EXPECT_FALSE(result->cluster.has_value());
}

TEST(MaxCliqueFinderTest, ExplicitBlockSizeWins) {
  Graph g = mce::test::Figure1Graph();
  MaxCliqueFinder::Options options;
  options.max_block_size = 5;
  MaxCliqueFinder finder(options);
  Result<uint32_t> m = finder.ResolveBlockSize(g);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(*m, 5u);
  Result<FindResult> result = finder.Find(g);
  ASSERT_TRUE(result.ok());
  CliqueSet expected = mce::test::Figure1Cliques();
  mce::test::ExpectSameCliques(result->cliques, expected);
  EXPECT_EQ(result->stats.hub_cliques, 1u);  // {D,S,E}
}

TEST(MaxCliqueFinderTest, RatioResolvesAgainstMaxDegree) {
  Graph g = mce::test::Figure1Graph();  // max degree 7
  MaxCliqueFinder::Options options;
  options.block_size_ratio = 0.5;
  MaxCliqueFinder finder(options);
  Result<uint32_t> m = finder.ResolveBlockSize(g);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(*m, 4u);  // ceil(0.5 * 7)
}

TEST(MaxCliqueFinderTest, RatioFloorsAtTwo) {
  Graph g = mce::test::PathGraph(3);  // max degree 2
  MaxCliqueFinder::Options options;
  options.block_size_ratio = 0.1;
  MaxCliqueFinder finder(options);
  Result<uint32_t> m = finder.ResolveBlockSize(g);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(*m, 2u);
}

TEST(MaxCliqueFinderTest, InvalidRatioRejected) {
  MaxCliqueFinder::Options options;
  options.block_size_ratio = 0.0;
  MaxCliqueFinder finder(options);
  Result<FindResult> result = finder.Find(mce::test::PathGraph(3));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  options.block_size_ratio = 1.5;
  MaxCliqueFinder finder2(options);
  EXPECT_FALSE(finder2.Find(mce::test::PathGraph(3)).ok());
}

TEST(MaxCliqueFinderTest, InvalidMinAdjacencyRejected) {
  MaxCliqueFinder::Options options;
  options.max_block_size = 10;
  options.min_adjacency = 0;
  MaxCliqueFinder finder(options);
  Result<FindResult> result = finder.Find(mce::test::PathGraph(4));
  EXPECT_FALSE(result.ok());
}

TEST(MaxCliqueFinderTest, FixedComboPathIsCorrect) {
  Rng rng(93);
  Graph g = gen::ErdosRenyiGnp(40, 0.2, &rng);
  for (StorageKind s : {StorageKind::kAdjacencyList, StorageKind::kMatrix,
                        StorageKind::kBitset}) {
    MaxCliqueFinder::Options options;
    options.max_block_size = 12;
    options.use_decision_tree = false;
    options.fixed = {Algorithm::kXPivot, s};
    MaxCliqueFinder finder(options);
    Result<FindResult> result = finder.Find(g);
    ASSERT_TRUE(result.ok());
    mce::test::ExpectMatchesNaive(g, result->cliques);
  }
}

TEST(MaxCliqueFinderTest, CustomTreeIsUsed) {
  Rng rng(95);
  Graph g = gen::BarabasiAlbert(50, 3, &rng);
  decision::DecisionTree always_bitset(
      MceOptions{Algorithm::kTomita, StorageKind::kBitset});
  MaxCliqueFinder::Options options;
  options.max_block_size = 15;
  options.tree = &always_bitset;
  MaxCliqueFinder finder(options);
  Result<FindResult> result = finder.Find(g);
  ASSERT_TRUE(result.ok());
  mce::test::ExpectMatchesNaive(g, result->cliques);
}

TEST(MaxCliqueFinderTest, ClusterSummaryAttached) {
  Rng rng(97);
  Graph g = gen::BarabasiAlbert(80, 3, &rng);
  MaxCliqueFinder::Options options;
  options.max_block_size = 15;
  options.simulate_cluster = true;
  options.cluster.num_workers = 6;
  MaxCliqueFinder finder(options);
  Result<FindResult> result = finder.Find(g);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->cluster.has_value());
  const exec::ClusterSummary& c = *result->cluster;
  EXPECT_EQ(c.workers, 6);
  EXPECT_GT(c.makespan_seconds, 0.0);
  // Including communication the speedup is positive and bounded by the
  // worker count (it can be < 1 when latency dominates tiny tasks); the
  // placement alone is always within [1, workers].
  EXPECT_GT(c.analysis_speedup, 0.0);
  EXPECT_LE(c.analysis_speedup, c.workers + 1e-9);
  EXPECT_GE(c.compute_speedup, 1.0 - 1e-9);
  EXPECT_LE(c.compute_speedup, c.workers + 1e-9);
  EXPECT_GT(c.bytes_shipped, 0u);
  mce::test::ExpectMatchesNaive(g, result->cliques);
}

TEST(MaxCliqueFinderTest, InvalidWorkerCountRejected) {
  // Every config SimulateCluster would abort on comes back as a Status.
  std::vector<dist::ClusterConfig> invalid(5);
  invalid[0].num_workers = 0;
  invalid[1].threads_per_worker = 0;
  invalid[2].num_workers = 3;
  invalid[2].worker_slowdown = {1.0, 2.0};  // wrong size
  invalid[3].num_workers = 2;
  invalid[3].worker_slowdown = {1.0, 0.0};
  invalid[4].num_workers = 2;
  invalid[4].worker_slowdown = {-1.0, 1.0};
  for (size_t i = 0; i < invalid.size(); ++i) {
    MaxCliqueFinder::Options options;
    options.max_block_size = 10;
    options.simulate_cluster = true;
    options.cluster = invalid[i];
    Result<FindResult> result =
        MaxCliqueFinder(options).Find(mce::test::PathGraph(4));
    ASSERT_FALSE(result.ok()) << "config " << i;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "config " << i;
  }
}

TEST(MaxCliqueFinderTest, StatsMatchCliqueSet) {
  Graph g = mce::test::Figure1Graph();
  MaxCliqueFinder::Options options;
  options.max_block_size = 5;
  MaxCliqueFinder finder(options);
  Result<FindResult> result = finder.Find(g);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.total_cliques, result->cliques.size());
  EXPECT_EQ(result->stats.total_cliques,
            result->stats.feasible_cliques + result->stats.hub_cliques);
  EXPECT_EQ(result->stats.max_clique_size, 3u);
  EXPECT_EQ(result->origin_level.size(), result->cliques.size());
  EXPECT_GE(result->levels.size(), 2u);
}

}  // namespace
}  // namespace mce
