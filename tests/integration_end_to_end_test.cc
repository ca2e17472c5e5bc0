// End-to-end tests over realistic (scaled-down) social-network stand-ins:
// full pipeline vs a reference enumerator, hub-clique effects, file-based
// ingestion, and the distributed execution path.

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/max_clique_finder.h"
#include "gen/social.h"
#include "graph/core_decomposition.h"
#include "graph/io.h"
#include "mce/enumerator.h"
#include "test_util.h"

namespace mce {
namespace {

/// Reference clique set via a single whole-graph Eppstein run (itself
/// cross-checked against the naive algorithm in mce_cross_check_test).
CliqueSet Reference(const Graph& g) {
  return EnumerateToSet(
      g, MceOptions{Algorithm::kEppstein, StorageKind::kAdjacencyList});
}

TEST(EndToEndTest, SocialStandInFullPipelineMatchesReference) {
  Graph g = gen::GenerateSocialNetwork(gen::Twitter1Config(0.03));
  MaxCliqueFinder::Options options;
  options.block_size_ratio = 0.5;
  MaxCliqueFinder finder(options);
  Result<FindResult> result = finder.Find(g);
  ASSERT_TRUE(result.ok()) << result.status();
  CliqueSet expected = Reference(g);
  mce::test::ExpectSameCliques(result->cliques, expected);
}

TEST(EndToEndTest, SmallRatiosProduceHubCliques) {
  // The headline effectiveness result: with small m/d there are cliques
  // made of hub nodes only, and they are comparatively large.
  Graph g = gen::GenerateSocialNetwork(gen::Twitter2Config(0.03));
  MaxCliqueFinder::Options options;
  options.block_size_ratio = 0.1;
  MaxCliqueFinder finder(options);
  Result<FindResult> result = finder.Find(g);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->stats.hub_cliques, 0u);
  // Hub cliques rival the overall sizes (Figures 9-10b).
  EXPECT_GE(result->stats.avg_hub_clique_size,
            0.5 * result->stats.avg_clique_size);
  // And the result is still complete.
  CliqueSet expected = Reference(g);
  mce::test::ExpectSameCliques(result->cliques, expected);
}

TEST(EndToEndTest, RatioSweepIsAlwaysComplete) {
  Graph g = gen::GenerateSocialNetwork(gen::GooglePlusConfig(0.02));
  CliqueSet expected = Reference(g);
  for (double ratio : {0.9, 0.5, 0.1}) {
    MaxCliqueFinder::Options options;
    options.block_size_ratio = ratio;
    MaxCliqueFinder finder(options);
    Result<FindResult> result = finder.Find(g);
    ASSERT_TRUE(result.ok()) << "ratio " << ratio;
    mce::test::ExpectSameCliques(result->cliques, expected);
  }
}

TEST(EndToEndTest, FewRecursionLevelsOnRealisticGraphs) {
  // Section 6.2: real datasets needed 2 iterations for m/d in {0.5, 0.9}
  // and 3 for {0.1, 0.3}. Our stand-ins plant a denser boosted hub core
  // relative to their size, so a few more peels can occur — the property
  // under test is "a handful of rounds, nothing like the Omega(n) worst
  // case" (at this scale n is ~500, so Omega(n) would be hundreds).
  Graph g = gen::GenerateSocialNetwork(gen::FacebookConfig(0.03));
  for (double ratio : {0.9, 0.5, 0.1}) {
    MaxCliqueFinder::Options options;
    options.block_size_ratio = ratio;
    MaxCliqueFinder finder(options);
    Result<FindResult> result = finder.Find(g);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->levels.size(), 16u) << "ratio " << ratio;
    EXPECT_GE(result->levels.size(), 1u);
  }
}

TEST(EndToEndTest, TriplesFileToCliques) {
  // Ingest the Section 6.2 triple format, run the pipeline, and report
  // cliques in the original label vocabulary.
  std::string path = testing::TempDir() + "/mce_e2e_triples.txt";
  {
    std::ofstream out(path);
    out << "ann follows bob\n"
           "bob follows cat\n"
           "ann follows cat\n"   // triangle ann-bob-cat
           "cat follows dan\n"
           "dan follows eve\n";
  }
  Result<LabeledGraph> lg = ReadTriples(path);
  ASSERT_TRUE(lg.ok()) << lg.status();
  MaxCliqueFinder::Options options;
  options.max_block_size = 3;
  MaxCliqueFinder finder(options);
  Result<FindResult> result = finder.Find(lg->graph);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->cliques.size(), 3u);
  // Largest clique is the triangle; translate to labels.
  const Clique* triangle = nullptr;
  for (const Clique& c : result->cliques.cliques()) {
    if (c.size() == 3) triangle = &c;
  }
  ASSERT_NE(triangle, nullptr);
  std::vector<std::string> labels;
  for (NodeId v : *triangle) labels.push_back(lg->labels[v]);
  std::sort(labels.begin(), labels.end());
  EXPECT_EQ(labels, (std::vector<std::string>{"ann", "bob", "cat"}));
  std::remove(path.c_str());
}

TEST(EndToEndTest, DistributedRunOnStandIn) {
  Graph g = gen::GenerateSocialNetwork(gen::Twitter1Config(0.02));
  MaxCliqueFinder::Options options;
  options.block_size_ratio = 0.3;
  options.simulate_cluster = true;
  options.cluster.num_workers = 10;
  MaxCliqueFinder finder(options);
  Result<FindResult> result = finder.Find(g);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->cluster.has_value());
  EXPECT_GT(result->cluster->analysis_speedup, 0.0);
  EXPECT_GT(result->cluster->compute_speedup, 1.0);
  CliqueSet expected = Reference(g);
  mce::test::ExpectSameCliques(result->cliques, expected);
}

TEST(EndToEndTest, DegeneracyBoundHolds) {
  // Theorem 1's practical reading: choosing m above the degeneracy avoids
  // the fallback on every stand-in.
  for (const auto& config : gen::AllDatasetConfigs(0.015)) {
    Graph g = gen::GenerateSocialNetwork(config);
    MaxCliqueFinder::Options options;
    options.max_block_size = Degeneracy(g) + 1;
    MaxCliqueFinder finder(options);
    Result<FindResult> result = finder.Find(g);
    ASSERT_TRUE(result.ok()) << config.name;
    EXPECT_FALSE(result->stats.used_fallback) << config.name;
  }
}

}  // namespace
}  // namespace mce
