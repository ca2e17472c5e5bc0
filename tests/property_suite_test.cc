// Wide property sweeps: the pipeline's completeness invariant checked over
// the cross product of its configuration space, at sizes where the naive
// reference is too slow — the Eppstein enumerator (itself cross-checked
// against the naive one in mce_cross_check_test) serves as the oracle.

#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/max_clique_finder.h"
#include "decomp/find_max_cliques.h"
#include "gen/generators.h"
#include "gen/social.h"
#include "gen/special.h"
#include "mce/enumerator.h"
#include "test_util.h"
#include "util/random.h"

namespace mce {
namespace {

CliqueSet Oracle(const Graph& g) {
  return EnumerateToSet(
      g, MceOptions{Algorithm::kEppstein, StorageKind::kAdjacencyList});
}

// ---------------------------------------------------------------------
// Sweep 1: ratio x seed policy, decision-tree-driven pipeline.
using RatioPolicyParam = std::tuple<double, decomp::SeedPolicy>;

class PipelineRatioPolicyTest
    : public ::testing::TestWithParam<RatioPolicyParam> {};

TEST_P(PipelineRatioPolicyTest, CompleteOnScaleFreeGraph) {
  const auto [ratio, policy] = GetParam();
  Rng rng(555);
  Graph g = gen::OverlayRandomCliques(gen::BarabasiAlbert(300, 3, &rng), 15,
                                      4, 12, true, &rng);
  MaxCliqueFinder::Options options;
  options.block_size_ratio = ratio;
  options.seed_policy = policy;
  MaxCliqueFinder finder(options);
  Result<FindResult> result = finder.Find(g);
  ASSERT_TRUE(result.ok());
  CliqueSet expected = Oracle(g);
  mce::test::ExpectSameCliques(result->cliques, expected);
}

std::string RatioPolicyName(
    const ::testing::TestParamInfo<RatioPolicyParam>& info) {
  // Built via append: `const char* + std::string&&` concatenation trips
  // GCC 12's -Werror=restrict false positive at -O3.
  static const char* const kPolicies[] = {"low", "high", "first"};
  std::string name = "r";
  name += std::to_string(static_cast<int>(std::get<0>(info.param) * 100));
  name += "_";
  name += kPolicies[static_cast<int>(std::get<1>(info.param))];
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineRatioPolicyTest,
    ::testing::Combine(::testing::Values(0.9, 0.5, 0.2, 0.05),
                       ::testing::Values(decomp::SeedPolicy::kLowestDegree,
                                         decomp::SeedPolicy::kHighestDegree,
                                         decomp::SeedPolicy::kFirstId)),
    RatioPolicyName);

// ---------------------------------------------------------------------
// Sweep 2: fixed combos through the whole pipeline (no decision tree).
using ComboParam = std::tuple<Algorithm, StorageKind>;

class PipelineFixedComboTest : public ::testing::TestWithParam<ComboParam> {
};

TEST_P(PipelineFixedComboTest, CompleteAtSmallBlockSize) {
  const auto [algorithm, storage] = GetParam();
  Rng rng(777);
  Graph g = gen::OverlayRandomCliques(
      gen::WattsStrogatz(200, 6, 0.2, &rng), 10, 4, 9, false, &rng);
  MaxCliqueFinder::Options options;
  options.max_block_size = 16;
  options.use_decision_tree = false;
  options.fixed = {algorithm, storage};
  MaxCliqueFinder finder(options);
  Result<FindResult> result = finder.Find(g);
  ASSERT_TRUE(result.ok());
  CliqueSet expected = Oracle(g);
  mce::test::ExpectSameCliques(result->cliques, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineFixedComboTest,
    ::testing::Combine(::testing::Values(Algorithm::kBKPivot,
                                         Algorithm::kTomita,
                                         Algorithm::kEppstein,
                                         Algorithm::kXPivot),
                       ::testing::Values(StorageKind::kAdjacencyList,
                                         StorageKind::kMatrix,
                                         StorageKind::kBitset)),
    [](const ::testing::TestParamInfo<ComboParam>& info) {
      return std::string(ToString(std::get<0>(info.param))) + "_" +
             ToString(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Sweep 3: randomized instances across seeds — every reported clique is
// maximal, none is missed, hub cliques are disjoint from feasible ones.
class PipelineSeedSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelineSeedSweepTest, InvariantsHoldOnRandomInstance) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  // Random family mix per seed.
  Graph g;
  switch (GetParam() % 4) {
    case 0:
      g = gen::ErdosRenyiGnp(150, 0.05 + 0.02 * (GetParam() % 5), &rng);
      break;
    case 1:
      g = gen::BarabasiAlbert(200, 2 + GetParam() % 4, &rng);
      break;
    case 2:
      g = gen::WattsStrogatz(150, 6, 0.3, &rng);
      break;
    default:
      g = gen::OverlayRandomCliques(gen::BarabasiAlbert(150, 2, &rng), 8, 4,
                                    10, true, &rng);
  }
  const uint32_t m = 5 + static_cast<uint32_t>(rng.NextBounded(30));
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = m;
  decomp::FindMaxCliquesResult result = decomp::FindMaxCliques(g, options);

  // Completeness against the oracle.
  CliqueSet expected = Oracle(g);
  mce::test::ExpectSameCliques(result.cliques, expected);

  // Every clique from level >= 1 consists purely of nodes that were hubs
  // at level 0 (degree >= m).
  for (size_t i = 0; i < result.cliques.size(); ++i) {
    if (result.origin_level[i] == 0) continue;
    for (NodeId v : result.cliques.cliques()[i]) {
      EXPECT_GE(g.Degree(v) + 1, m)
          << "hub-origin clique contains feasible node " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSeedSweepTest,
                         ::testing::Range(0, 16));

// ---------------------------------------------------------------------
// Sweep 4: the social stand-ins, full facade, across scales and ratios.
class StandInSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(StandInSweepTest, PipelineCompleteOnDataset) {
  auto configs = gen::AllDatasetConfigs(0.012);
  const auto& config = configs[GetParam() % configs.size()];
  Graph g = gen::GenerateSocialNetwork(config);
  const double ratio = GetParam() < 5 ? 0.5 : 0.15;
  MaxCliqueFinder::Options options;
  options.block_size_ratio = ratio;
  MaxCliqueFinder finder(options);
  Result<FindResult> result = finder.Find(g);
  ASSERT_TRUE(result.ok()) << config.name;
  CliqueSet expected = Oracle(g);
  mce::test::ExpectSameCliques(result->cliques, expected);
}

INSTANTIATE_TEST_SUITE_P(Datasets, StandInSweepTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace mce
