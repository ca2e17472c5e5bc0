#include "graph/graph.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/builder.h"
#include "graph/subgraph.h"
#include "graph/views.h"
#include "test_util.h"
#include "util/random.h"

namespace mce {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.MaxDegree(), 0u);
  EXPECT_EQ(g.Density(), 0.0);
}

TEST(GraphBuilderTest, BuildsTriangle) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(2), 2u);
}

TEST(GraphBuilderTest, DropsSelfLoopsAndDuplicates) {
  GraphBuilder b;
  b.AddEdge(0, 0);  // self-loop dropped
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // duplicate (reversed)
  b.AddEdge(0, 1);  // duplicate
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(GraphBuilderTest, ReserveNodesCreatesIsolatedNodes) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.ReserveNodes(5);
  Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.Degree(4), 0u);
  EXPECT_TRUE(g.Neighbors(4).empty());
}

TEST(GraphBuilderTest, NodeCountCoversLargestEndpoint) {
  GraphBuilder b;
  b.AddEdge(2, 9);
  Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.Degree(0), 0u);
}

TEST(GraphBuilderTest, BuilderIsReusableAfterBuild) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  Graph g1 = b.Build();
  EXPECT_EQ(g1.num_edges(), 1u);
  b.AddEdge(0, 2);
  Graph g2 = b.Build();
  EXPECT_EQ(g2.num_edges(), 1u);
  EXPECT_EQ(g2.num_nodes(), 3u);
  EXPECT_TRUE(g2.HasEdge(0, 2));
  EXPECT_FALSE(g2.HasEdge(0, 1));
}

TEST(GraphBuilderDeathTest, RejectsKInvalidNodeEndpoints) {
  GraphBuilder b;
  EXPECT_DEATH(b.AddEdge(0, kInvalidNode), "Check failed");
  EXPECT_DEATH(b.AddEdge(kInvalidNode, 1), "Check failed");
}

TEST(GraphTest, NeighborsAreSortedAndDuplicateFree) {
  GraphBuilder b;
  b.AddEdge(3, 1);
  b.AddEdge(3, 7);
  b.AddEdge(3, 0);
  b.AddEdge(3, 5);
  Graph g = b.Build();
  auto nbrs = g.Neighbors(3);
  std::vector<NodeId> v(nbrs.begin(), nbrs.end());
  EXPECT_EQ(v, (std::vector<NodeId>{0, 1, 5, 7}));
}

TEST(GraphTest, DensityOfCompleteGraphIsOne) {
  GraphBuilder b;
  for (NodeId i = 0; i < 5; ++i) {
    for (NodeId j = i + 1; j < 5; ++j) b.AddEdge(i, j);
  }
  Graph g = b.Build();
  EXPECT_DOUBLE_EQ(g.Density(), 1.0);
}

TEST(GraphTest, Figure1Degrees) {
  using namespace mce::test;
  Graph g = Figure1Graph();
  EXPECT_EQ(g.num_nodes(), static_cast<NodeId>(kFig1Nodes));
  EXPECT_EQ(g.Degree(D), 7u);
  EXPECT_EQ(g.Degree(S), 5u);
  EXPECT_EQ(g.Degree(E), 5u);
  EXPECT_EQ(g.Degree(H), 4u);
  EXPECT_EQ(g.MaxDegree(), 7u);
}

TEST(InduceTest, MapsIdsAndKeepsEdges) {
  using namespace mce::test;
  Graph g = Figure1Graph();
  // Induce on the hub nodes {D, S, E}: should be the triangle.
  InducedSubgraph sub = Induce(g, std::vector<NodeId>{S, D, E});
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 3u);
  // to_parent is ascending.
  EXPECT_EQ(sub.to_parent, (std::vector<NodeId>{D, E, S}));
  // Translate back.
  std::vector<NodeId> parents = ToParentIds(sub, std::vector<NodeId>{0, 2});
  EXPECT_EQ(parents, (std::vector<NodeId>{D, S}));
}

TEST(InduceTest, DeduplicatesInputNodes) {
  Graph g = test::PathGraph(4);
  InducedSubgraph sub = Induce(g, std::vector<NodeId>{2, 1, 2, 1});
  EXPECT_EQ(sub.graph.num_nodes(), 2u);
  EXPECT_EQ(sub.graph.num_edges(), 1u);
}

TEST(InduceTest, EmptySelection) {
  Graph g = test::PathGraph(4);
  InducedSubgraph sub = Induce(g, std::vector<NodeId>{});
  EXPECT_EQ(sub.graph.num_nodes(), 0u);
  EXPECT_TRUE(sub.to_parent.empty());
}

TEST(InduceTest, DropsEdgesToOutsiders) {
  Graph g = test::StarGraph(5);
  InducedSubgraph sub = Induce(g, std::vector<NodeId>{1, 2, 3});
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 0u);  // leaves are pairwise non-adjacent
}

/// The induced subgraph on the distinct ids of `nodes`, built pair by pair
/// with HasEdge — independent of every row-filtering path.
Graph BruteForceInduce(const Graph& g, std::vector<NodeId> nodes) {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  GraphBuilder b;
  b.ReserveNodes(static_cast<NodeId>(nodes.size()));
  for (NodeId i = 0; i < nodes.size(); ++i) {
    for (NodeId j = i + 1; j < nodes.size(); ++j) {
      if (g.HasEdge(nodes[i], nodes[j])) b.AddEdge(i, j);
    }
  }
  return b.Build();
}

TEST(InduceTest, AgreesWithBruteForceOnRandomMemberSets) {
  Rng rng(41);
  const Graph g = gen::BarabasiAlbert(300, 4, &rng);
  const NodeId n = g.num_nodes();
  std::vector<std::vector<NodeId>> sets;
  sets.push_back({});                        // empty
  sets.push_back({static_cast<NodeId>(7)});  // one node
  std::vector<NodeId> all(n);
  for (NodeId v = 0; v < n; ++v) all[v] = n - 1 - v;  // all nodes, reversed
  sets.push_back(all);
  // The two largest hubs plus a neighbor: rows far longer than the member
  // list, the case Induce gallops through the row for.
  std::vector<NodeId> by_degree(n);
  for (NodeId v = 0; v < n; ++v) by_degree[v] = v;
  std::sort(by_degree.begin(), by_degree.end(), [&g](NodeId a, NodeId b) {
    return g.Degree(a) > g.Degree(b);
  });
  ASSERT_GT(g.Degree(by_degree[1]), 8u * 3u);
  sets.push_back({by_degree[1], g.Neighbors(by_degree[0]).front(),
                  by_degree[0], by_degree[1]});
  // Random sets from small (mostly short rows) to nearly all nodes (rows
  // far shorter than the member list): unsorted, with duplicates.
  for (const size_t size : {3, 12, 40, 150, 290}) {
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<NodeId> s;
      for (size_t i = 0; i < size; ++i) {
        s.push_back(static_cast<NodeId>(rng.NextBounded(n)));
      }
      s.push_back(s.front());  // at least one duplicate
      sets.push_back(std::move(s));
    }
  }
  const DegreeOrientation up(g);
  std::vector<NodeId> local_of(n, kInvalidNode);
  for (const std::vector<NodeId>& nodes : sets) {
    const Graph want = BruteForceInduce(g, nodes);
    std::vector<NodeId> members = nodes;
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());

    const InducedSubgraph one_shot = Induce(g, nodes);
    EXPECT_EQ(one_shot.to_parent, members);
    EXPECT_TRUE(one_shot.graph == want) << nodes.size() << " ids";

    // The block builder's path: oriented rows through a dense
    // parent->local map.
    for (NodeId i = 0; i < members.size(); ++i) local_of[members[i]] = i;
    EXPECT_TRUE(InduceOriented(up, members, local_of) == want)
        << nodes.size() << " ids";
    for (NodeId v : members) local_of[v] = kInvalidNode;
  }
}

TEST(DegreeOrientationTest, KeepsEachEdgeOnceAtItsLowerRankedEnd) {
  Rng rng(47);
  for (const Graph& g : {test::Figure1Graph(), test::StarGraph(9),
                         test::CycleGraph(7),
                         gen::BarabasiAlbert(120, 3, &rng)}) {
    const DegreeOrientation up(g);
    ASSERT_EQ(up.num_nodes(), g.num_nodes());
    uint64_t kept = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      std::vector<NodeId> want;
      for (NodeId w : g.Neighbors(v)) {
        if (std::pair(g.Degree(v), v) < std::pair(g.Degree(w), w)) {
          want.push_back(w);
        }
      }
      const std::span<const NodeId> got = up.Higher(v);
      EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()), want) << v;
      kept += got.size();
    }
    EXPECT_EQ(kept, g.num_edges());
  }
  // No leaf outranks the star's hub.
  EXPECT_TRUE(DegreeOrientation(test::StarGraph(9)).Higher(0).empty());
}

TEST(ViewsTest, MatrixMatchesGraph) {
  Graph g = test::Figure1Graph();
  AdjacencyMatrix m(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(m.Adjacent(u, v), g.HasEdge(u, v)) << u << "," << v;
    }
  }
}

TEST(ViewsTest, BitsetGraphMatchesGraph) {
  Graph g = test::Figure1Graph();
  BitsetGraph bg(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(bg.Row(u).Count(), g.Degree(u));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(bg.Adjacent(u, v), g.HasEdge(u, v)) << u << "," << v;
    }
  }
}

TEST(GraphTest, EqualityOperator) {
  Graph a = test::PathGraph(4);
  Graph b = test::PathGraph(4);
  Graph c = test::CycleGraph(4);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace mce
