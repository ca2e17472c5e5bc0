#include "core/clique_analysis.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "gen/special.h"
#include "mce/naive.h"
#include "test_util.h"
#include "util/random.h"

namespace mce {
namespace {

CliqueSet SampleCliques() {
  CliqueSet cs;
  cs.Add(Clique{0, 1});
  cs.Add(Clique{1, 2, 3});
  cs.Add(Clique{0, 2, 3, 4});
  cs.Add(Clique{4});
  return cs;
}

TEST(CliqueSizeHistogramTest, CountsBySize) {
  CliqueSet cs = SampleCliques();
  std::vector<uint64_t> h = CliqueSizeHistogram(cs);
  ASSERT_EQ(h.size(), 5u);
  EXPECT_EQ(h[0], 0u);
  EXPECT_EQ(h[1], 1u);
  EXPECT_EQ(h[2], 1u);
  EXPECT_EQ(h[3], 1u);
  EXPECT_EQ(h[4], 1u);
}

TEST(CliqueSizeHistogramTest, EmptySet) {
  CliqueSet cs;
  std::vector<uint64_t> h = CliqueSizeHistogram(cs);
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0], 0u);
}

TEST(LargestCliqueIndicesTest, OrdersBySizeThenContent) {
  CliqueSet cs = SampleCliques();
  std::vector<size_t> top = LargestCliqueIndices(cs, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(cs.cliques()[top[0]].size(), 4u);
  EXPECT_EQ(cs.cliques()[top[1]].size(), 3u);
  // Asking for more than exists returns everything.
  EXPECT_EQ(LargestCliqueIndices(cs, 100).size(), 4u);
  EXPECT_TRUE(LargestCliqueIndices(cs, 0).empty());
}

TEST(LargestCliqueIndicesTest, EqualsFullSortPrefixUnderSizeTies) {
  // Three sizes over 400 cliques, every one repeated once: sizes tie
  // everywhere, and so does content, which only the index then orders.
  Rng rng(41);
  CliqueSet cs;
  for (int i = 0; i < 200; ++i) {
    const size_t size = 2 + rng.NextBounded(3);
    std::vector<uint64_t> ids = rng.SampleWithoutReplacement(12, size);
    const Clique c(ids.begin(), ids.end());
    cs.Add(c);
    cs.Add(c);
  }
  std::vector<size_t> full(cs.size());
  std::iota(full.begin(), full.end(), 0);
  std::sort(full.begin(), full.end(), [&cs](size_t a, size_t b) {
    const Clique& ca = cs.cliques()[a];
    const Clique& cb = cs.cliques()[b];
    if (ca.size() != cb.size()) return ca.size() > cb.size();
    if (ca != cb) return ca < cb;
    return a < b;
  });
  for (size_t k : {size_t{1}, size_t{7}, size_t{50}, size_t{399},
                   size_t{400}, size_t{1000}}) {
    SCOPED_TRACE(k);
    const std::vector<size_t> want(full.begin(),
                                   full.begin() + std::min(k, full.size()));
    EXPECT_EQ(LargestCliqueIndices(cs, k), want);
  }
}

TEST(PerNodeCliqueCountsTest, CountsMembership) {
  CliqueSet cs = SampleCliques();
  std::vector<uint64_t> counts = PerNodeCliqueCounts(cs, 6);
  EXPECT_EQ(counts, (std::vector<uint64_t>{2, 2, 2, 2, 2, 0}));
}

TEST(PerNodeCliqueCountsTest, DiesOnOutOfRangeMember) {
  CliqueSet cs;
  cs.Add(Clique{7});
  EXPECT_DEATH(PerNodeCliqueCounts(cs, 3), "Check failed");
}

TEST(TopParticipantsTest, RanksByCount) {
  CliqueSet cs;
  cs.Add(Clique{0, 1});
  cs.Add(Clique{1, 2});
  cs.Add(Clique{1, 3});
  std::vector<NodeId> top = TopParticipants(cs, 4, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 1u);  // in 3 cliques
  EXPECT_EQ(top[1], 0u);  // tie at 1 broken by id
}

TEST(TopParticipantsTest, AgreesWithNaiveOnRealGraph) {
  Graph g = test::Figure1Graph();
  CliqueSet cs = NaiveMceSet(g);
  std::vector<uint64_t> counts = PerNodeCliqueCounts(cs, g.num_nodes());
  // D is in {H,F,D}, {D,S,E}, {D,P}, {D,R}, {D,Z} = 5 cliques.
  using namespace mce::test;
  EXPECT_EQ(counts[D], 5u);
  EXPECT_EQ(TopParticipants(cs, g.num_nodes(), 1)[0],
            static_cast<NodeId>(D));
}

}  // namespace
}  // namespace mce
