#include "core/run_stats.h"

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "test_util.h"
#include "util/random.h"

namespace mce {
namespace {

decomp::FindMaxCliquesResult MakeResult(
    std::vector<std::pair<Clique, uint32_t>> cliques) {
  decomp::FindMaxCliquesResult r;
  std::sort(cliques.begin(), cliques.end());
  for (auto& [c, level] : cliques) {
    r.cliques.Add(std::move(c));
    r.origin_level.push_back(level);
  }
  r.levels.resize(2);
  return r;
}

TEST(RunStatsTest, CountsAndAveragesByOrigin) {
  decomp::FindMaxCliquesResult r = MakeResult({
      {{0, 1}, 0},           // feasible, size 2
      {{2, 3, 4, 5}, 0},     // feasible, size 4
      {{6, 7, 8}, 1},        // hub, size 3
  });
  RunStats s = ComputeRunStats(r);
  EXPECT_EQ(s.total_cliques, 3u);
  EXPECT_EQ(s.feasible_cliques, 2u);
  EXPECT_EQ(s.hub_cliques, 1u);
  EXPECT_EQ(s.max_clique_size, 4u);
  EXPECT_DOUBLE_EQ(s.avg_clique_size, 3.0);
  EXPECT_DOUBLE_EQ(s.avg_feasible_clique_size, 3.0);
  EXPECT_DOUBLE_EQ(s.avg_hub_clique_size, 3.0);
  EXPECT_EQ(s.num_levels, 2u);
}

TEST(RunStatsTest, EmptyResult) {
  decomp::FindMaxCliquesResult r;
  r.levels.resize(1);
  RunStats s = ComputeRunStats(r);
  EXPECT_EQ(s.total_cliques, 0u);
  EXPECT_EQ(s.max_clique_size, 0u);
  EXPECT_DOUBLE_EQ(s.avg_clique_size, 0.0);
}

TEST(RunStatsTest, ToStringMentionsKeyNumbers) {
  decomp::FindMaxCliquesResult r = MakeResult({{{0, 1, 2}, 1}});
  r.used_fallback = true;
  RunStats s = ComputeRunStats(r);
  std::string str = RunSummaryLine(s, r);
  EXPECT_NE(str.find("cliques=1"), std::string::npos);
  EXPECT_NE(str.find("hub-only=1"), std::string::npos);
  EXPECT_NE(str.find("[fallback]"), std::string::npos);
}

TEST(RunStatsTest, ToStringCarriesEveryTimingField) {
  decomp::FindMaxCliquesResult r = MakeResult({{{0, 1}, 0}});
  r.levels[0].decompose_seconds = 0.25;
  r.levels[0].analyze_seconds = 1.5;
  r.levels[0].overlap_seconds = 0.125;
  r.levels[0].idle_seconds = 0.75;
  r.levels[1].overlap_seconds = 0.375;
  RunStats s = ComputeRunStats(r);
  EXPECT_DOUBLE_EQ(s.overlap_seconds, 0.5);
  EXPECT_DOUBLE_EQ(s.idle_seconds, 0.75);
  std::string str = RunSummaryLine(s, r);
  EXPECT_NE(str.find("decompose_s=0.25"), std::string::npos) << str;
  EXPECT_NE(str.find("analyze_s=1.5"), std::string::npos) << str;
  EXPECT_NE(str.find("overlap_s=0.5"), std::string::npos) << str;
  EXPECT_NE(str.find("idle_s=0.75"), std::string::npos) << str;
  EXPECT_EQ(str.find("[fallback]"), std::string::npos) << str;
}

TEST(RunStatsTest, ToStringSummarizesReductionWhenEnabled) {
  decomp::FindMaxCliquesResult r = MakeResult({{{0, 1}, 0}});
  // Off by default: no reduce segment in the line.
  EXPECT_EQ(RunSummaryLine(ComputeRunStats(r), r).find("reduce["),
            std::string::npos);
  r.reduction.enabled = true;
  r.reduction.vertices_removed = 12;
  r.reduction.edges_removed = 34;
  r.reduction.trivial_cliques = 5;
  r.reduction.rounds = 2;
  RunStats s = ComputeRunStats(r);
  std::string str = RunSummaryLine(s, r);
  EXPECT_NE(str.find("reduce[v=12 e=34 trivial=5 rounds=2]"),
            std::string::npos)
      << str;
}

TEST(HubShareTest, AllFeasibleIsZero) {
  decomp::FindMaxCliquesResult r = MakeResult({
      {{0, 1}, 0},
      {{2, 3}, 0},
  });
  EXPECT_DOUBLE_EQ(HubShareOfLargestCliques(r, 10), 0.0);
}

TEST(HubShareTest, LargestCliquesDominatedByHubs) {
  // Two big hub cliques and many small feasible ones: top-2 share = 1.0.
  decomp::FindMaxCliquesResult r = MakeResult({
      {{0, 1, 2, 3, 4}, 1},
      {{5, 6, 7, 8, 9, 10}, 2},
      {{11, 12}, 0},
      {{13, 14}, 0},
      {{15, 16}, 0},
  });
  EXPECT_DOUBLE_EQ(HubShareOfLargestCliques(r, 2), 1.0);
  // Top-5: 2 hub of 5.
  EXPECT_DOUBLE_EQ(HubShareOfLargestCliques(r, 5), 0.4);
}

TEST(HubShareTest, SizeTiesBreakByContentNotLevel) {
  // Three cliques of size 3: the top 2 by content are {0,1,2} and
  // {0,1,5}, both hub-only, although a feasible clique ties on size.
  decomp::FindMaxCliquesResult r = MakeResult({
      {{4, 6, 7}, 0},
      {{0, 1, 5}, 2},
      {{0, 1, 2}, 1},
      {{8, 9}, 0},
  });
  EXPECT_DOUBLE_EQ(HubShareOfLargestCliques(r, 1), 1.0);
  EXPECT_DOUBLE_EQ(HubShareOfLargestCliques(r, 2), 1.0);
  EXPECT_DOUBLE_EQ(HubShareOfLargestCliques(r, 3), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(HubShareOfLargestCliques(r, 4), 0.5);
}

TEST(HubShareTest, KLargerThanCollection) {
  decomp::FindMaxCliquesResult r = MakeResult({{{0, 1}, 1}});
  EXPECT_DOUBLE_EQ(HubShareOfLargestCliques(r, 200), 1.0);
}

TEST(HubShareTest, EmptyAndZeroK) {
  decomp::FindMaxCliquesResult r;
  EXPECT_DOUBLE_EQ(HubShareOfLargestCliques(r, 10), 0.0);
  decomp::FindMaxCliquesResult r2 = MakeResult({{{0, 1}, 1}});
  EXPECT_DOUBLE_EQ(HubShareOfLargestCliques(r2, 0), 0.0);
}

TEST(RunStatsTest, AggregatesLevelTimings) {
  decomp::FindMaxCliquesResult r;
  r.levels.resize(3);
  r.levels[0].blocks = 5;
  r.levels[0].decompose_seconds = 0.5;
  r.levels[0].analyze_seconds = 1.0;
  r.levels[1].blocks = 2;
  r.levels[1].decompose_seconds = 0.25;
  r.levels[2].blocks = 1;
  r.levels[2].analyze_seconds = 0.125;
  RunStats s = ComputeRunStats(r);
  EXPECT_EQ(s.total_blocks, 8u);
  EXPECT_DOUBLE_EQ(s.decompose_seconds, 0.75);
  EXPECT_DOUBLE_EQ(s.analyze_seconds, 1.125);
}

}  // namespace
}  // namespace mce
