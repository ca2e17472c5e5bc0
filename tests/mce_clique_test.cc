#include "mce/clique.h"

#include <gtest/gtest.h>

#include "gen/special.h"
#include "test_util.h"

namespace mce {
namespace {

TEST(IsCliqueTest, RecognizesCliques) {
  Graph g = test::Figure1Graph();
  using namespace mce::test;
  EXPECT_TRUE(IsClique(g, Clique{A, J, H}));
  EXPECT_TRUE(IsClique(g, Clique{D, S, E}));
  EXPECT_TRUE(IsClique(g, Clique{D, S}));
  EXPECT_TRUE(IsClique(g, Clique{A}));
  EXPECT_TRUE(IsClique(g, Clique{}));
  EXPECT_FALSE(IsClique(g, Clique{A, D}));
  EXPECT_FALSE(IsClique(g, Clique{A, J, H, D}));
}

TEST(IsMaximalCliqueTest, DistinguishesMaximal) {
  Graph g = test::Figure1Graph();
  using namespace mce::test;
  EXPECT_TRUE(IsMaximalClique(g, Clique{A, J, H}));
  EXPECT_TRUE(IsMaximalClique(g, Clique{D, S, E}));
  EXPECT_FALSE(IsMaximalClique(g, Clique{A, J}));    // extendable by H
  EXPECT_FALSE(IsMaximalClique(g, Clique{D, S}));    // extendable by E
  EXPECT_FALSE(IsMaximalClique(g, Clique{A, D}));    // not a clique
  EXPECT_TRUE(IsMaximalClique(g, Clique{D, P}));
}

TEST(IsMaximalCliqueTest, EmptyCliqueOnlyInEmptyGraph) {
  EXPECT_TRUE(IsMaximalClique(Graph(), Clique{}));
  EXPECT_FALSE(IsMaximalClique(test::PathGraph(2), Clique{}));
}

TEST(CommonNeighborsTest, IntersectsNeighborhoods) {
  Graph g = test::Figure1Graph();
  using namespace mce::test;
  EXPECT_EQ(CommonNeighbors(g, Clique{A, J}), (std::vector<NodeId>{H}));
  EXPECT_EQ(CommonNeighbors(g, Clique{D, S}), (std::vector<NodeId>{E}));
  EXPECT_TRUE(CommonNeighbors(g, Clique{D, S, E}).empty());
  // Single node: its whole neighborhood.
  EXPECT_EQ(CommonNeighbors(g, Clique{A}).size(), 2u);
}

TEST(CommonNeighborsTest, ExcludesMembers) {
  Graph g = gen::Complete(4);
  // In K4, common neighbors of {0,1} are {2,3}, not including 0 or 1.
  EXPECT_EQ(CommonNeighbors(g, Clique{0, 1}), (std::vector<NodeId>{2, 3}));
}

TEST(CliqueSetTest, AddSortsMembers) {
  CliqueSet cs;
  cs.Add(Clique{3, 1, 2});
  EXPECT_EQ(cs.cliques()[0], (Clique{1, 2, 3}));
}

TEST(CliqueSetTest, CanonicalizeSortsAndDedups) {
  CliqueSet cs;
  cs.Add(Clique{2, 1});
  cs.Add(Clique{0});
  cs.Add(Clique{1, 2});
  cs.Canonicalize();
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs.cliques()[0], (Clique{0}));
  EXPECT_EQ(cs.cliques()[1], (Clique{1, 2}));
  // Already sorted: the sort is skipped, the duplicates still go.
  cs.Add(Clique{1, 2});
  cs.Add(Clique{3});
  cs.Add(Clique{3});
  cs.Canonicalize();
  EXPECT_EQ(cs.cliques(), (std::vector<Clique>{{0}, {1, 2}, {3}}));
}

TEST(CliqueSetTest, MergeMovesAll) {
  CliqueSet a, b;
  a.Add(Clique{0});
  b.Add(Clique{1});
  b.Add(Clique{2});
  a.Merge(std::move(b));
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(b.size(), 0u);
}

TEST(CliqueSetTest, SizeStats) {
  CliqueSet cs;
  EXPECT_EQ(cs.MaxCliqueSize(), 0u);
  EXPECT_EQ(cs.AverageCliqueSize(), 0.0);
  cs.Add(Clique{0, 1});
  cs.Add(Clique{2, 3, 4, 5});
  EXPECT_EQ(cs.MaxCliqueSize(), 4u);
  EXPECT_DOUBLE_EQ(cs.AverageCliqueSize(), 3.0);
}

TEST(CliqueSetTest, EqualIsSetEquality) {
  CliqueSet a, b;
  a.Add(Clique{0, 1});
  a.Add(Clique{2});
  b.Add(Clique{2});
  b.Add(Clique{1, 0});
  EXPECT_TRUE(CliqueSet::Equal(a, b));
  b.Add(Clique{3});
  EXPECT_FALSE(CliqueSet::Equal(a, b));
}

TEST(CliqueSetTest, CollectorAppends) {
  CliqueSet cs;
  CliqueCallback cb = cs.Collector();
  std::vector<NodeId> c1{5, 2};
  cb(c1);
  EXPECT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs.cliques()[0], (Clique{2, 5}));
}

}  // namespace
}  // namespace mce
