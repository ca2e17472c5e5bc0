#include "decomp/filter.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "decomp/cut.h"
#include "gen/generators.h"
#include "gen/special.h"
#include "graph/builder.h"
#include "graph/subgraph.h"
#include "mce/naive.h"
#include "reduce/reduction.h"
#include "test_util.h"
#include "util/random.h"

namespace mce::decomp {
namespace {

TEST(FilterContainedTest, DropsContainedKeepsOthers) {
  CliqueSet ch, cf;
  ch.Add(Clique{1, 2});        // contained in {1,2,3}
  ch.Add(Clique{4, 5});        // not contained
  ch.Add(Clique{1, 2, 3});     // equal counts as contained
  cf.Add(Clique{1, 2, 3});
  cf.Add(Clique{6});
  CliqueSet out = FilterContainedCliques(ch, cf);
  CliqueSet expected;
  expected.Add(Clique{4, 5});
  mce::test::ExpectSameCliques(out, expected);
}

TEST(FilterContainedTest, EmptyInputs) {
  CliqueSet empty, some;
  some.Add(Clique{1});
  EXPECT_EQ(FilterContainedCliques(empty, some).size(), 0u);
  EXPECT_EQ(FilterContainedCliques(some, empty).size(), 1u);
}

TEST(IsMaximalInGraphTest, MatchesDefinition) {
  using namespace mce::test;
  Graph g = Figure1Graph();
  EXPECT_TRUE(IsMaximalInGraph(g, Clique{D, S, E}));
  EXPECT_FALSE(IsMaximalInGraph(g, Clique{D, S}));
  EXPECT_FALSE(IsMaximalInGraph(g, Clique{A, J}));
}

TEST(FilterNonMaximalTest, KeepsOnlyMaximal) {
  using namespace mce::test;
  Graph g = Figure1Graph();
  CliqueSet in;
  in.Add(Clique{D, S, E});
  in.Add(Clique{D, S});
  in.Add(Clique{H, F, D});
  in.Add(Clique{F, D});
  CliqueSet out = FilterNonMaximal(g, in);
  CliqueSet expected;
  expected.Add(Clique{D, S, E});
  expected.Add(Clique{H, F, D});
  mce::test::ExpectSameCliques(out, expected);
}

// Lemma 1, property-tested: for a random graph and a random bipartition
// (N1, N2), let C1 = maximal cliques of G with a node in N1 and C2 =
// maximal cliques of the subgraph induced by N2. Then
// C1 u filter(C2, C1) = all maximal cliques of G, and the two filter
// implementations agree on C2.
TEST(Lemma1PropertyTest, HoldsOnRandomBipartitions) {
  Rng rng(51);
  for (int trial = 0; trial < 12; ++trial) {
    Graph g = gen::ErdosRenyiGnp(26, 0.15 + 0.04 * (trial % 5), &rng);
    std::unordered_set<NodeId> n1;
    std::vector<NodeId> n2;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (rng.NextBool(0.5)) {
        n1.insert(v);
      } else {
        n2.push_back(v);
      }
    }
    CliqueSet all = NaiveMceSet(g);
    CliqueSet c1;
    for (const Clique& c : all.cliques()) {
      for (NodeId v : c) {
        if (n1.count(v)) {
          c1.Add(c);
          break;
        }
      }
    }
    InducedSubgraph sub = Induce(g, n2);
    CliqueSet c2;
    NaiveMce(sub.graph, [&](std::span<const NodeId> local) {
      c2.Add(ToParentIds(sub, local));
    });

    // The two filters agree.
    CliqueSet by_containment = FilterContainedCliques(c2, c1);
    CliqueSet by_maximality = FilterNonMaximal(g, c2);
    mce::test::ExpectSameCliques(by_containment, by_maximality);

    // And the union reconstructs all maximal cliques (Lemma 1).
    CliqueSet reconstructed = c1;
    reconstructed.Merge(std::move(by_containment));
    mce::test::ExpectSameCliques(reconstructed, all);
  }
}

TEST(FilterEquivalenceTest, HubSideOfFigure1) {
  using namespace mce::test;
  Graph g = Figure1Graph();
  // C_h = maximal cliques of the induced hub triangle = {D,S,E}. It is
  // maximal in G, so both filters keep it.
  CliqueSet ch;
  ch.Add(Clique{D, S, E});
  CliqueSet cf = Figure1Cliques();  // superset of C_f; contains no {D,S,E}
  CliqueSet cf_without;
  for (const Clique& c : cf.cliques()) {
    if (!(c == Clique{static_cast<NodeId>(D), static_cast<NodeId>(E),
                      static_cast<NodeId>(S)})) {
      cf_without.Add(c);
    }
  }
  EXPECT_EQ(FilterContainedCliques(ch, cf_without).size(), 1u);
  EXPECT_EQ(FilterNonMaximal(g, ch).size(), 1u);
}

// The size rule at its boundary and below it: K3's three one-word rows
// take 24 B against 4 * 6 B of adjacency and are built; ten rows over a
// 1,000-node path take 1,280 B against 4 * 19 B and are declined.
TEST(MaximalityIndexTest, BuildsRowsOnlyWithinTheirAdjacency) {
  const MaximalityIndex triangle =
      MaximalityIndex::Build(gen::Complete(3), {2, 0, 1});
  ASSERT_TRUE(triangle.built());
  EXPECT_EQ(triangle.Bytes(), 3 * sizeof(uint64_t) + 3 * sizeof(NodeId));
  EXPECT_TRUE(triangle.IsMaximal(std::vector<NodeId>{0, 1, 2}));
  EXPECT_FALSE(triangle.IsMaximal(std::vector<NodeId>{2, 0}));

  std::vector<NodeId> ids(10);
  std::iota(ids.begin(), ids.end(), 0);
  const MaximalityIndex path =
      MaximalityIndex::Build(mce::test::PathGraph(1000), ids);
  EXPECT_FALSE(path.built());
  EXPECT_EQ(path.Bytes(), 0u);
}

/// The hub levels (h >= 1) of `g`'s recursion at block bound `m`, as the
/// executors walk them: each level graph with its ids in `g`. The chain
/// stops at a level without hubs or at the m-core fallback.
std::vector<std::pair<Graph, std::vector<NodeId>>> HubLevels(const Graph& g,
                                                             uint32_t m) {
  std::vector<std::pair<Graph, std::vector<NodeId>>> levels;
  Graph level = g;
  std::vector<NodeId> to_g(g.num_nodes());
  std::iota(to_g.begin(), to_g.end(), 0);
  for (;;) {
    const CutResult cut = Cut(level, m);
    if (cut.feasible.empty() || cut.hubs.empty()) break;
    InducedSubgraph sub = Induce(level, cut.hubs);
    for (NodeId& v : sub.to_parent) v = to_g[v];
    to_g = sub.to_parent;
    level = std::move(sub.graph);
    levels.emplace_back(level, to_g);
  }
  return levels;
}

/// Checks an index of g against IsMaximalInGraph on `set` (original ids)
/// and tallies the answers.
struct Agreement {
  const Graph* g = nullptr;
  uint64_t maximal = 0;
  uint64_t extendable = 0;

  void Check(const MaximalityIndex& index, Clique set) {
    std::sort(set.begin(), set.end());
    const bool want = IsMaximalInGraph(*g, set);
    ASSERT_EQ(index.IsMaximal(set), want)
        << "set of " << set.size() << " starting at " << set.front();
    ++(want ? maximal : extendable);
  }
};

/// Draws member sets from every hub level of `g` (ids in the pipeline
/// graph `r`, expanded through `map`'s twin classes when it is given) and
/// checks the level's rows against IsMaximalInGraph on each: every maximal
/// clique of the level graph, each of them less its first member, and
/// random subsets of the level's ids, mostly non-cliques. Returns the
/// number of levels whose rows were built.
size_t CheckEveryHubLevel(const Graph& g, const Graph& r, uint32_t m,
                          const reduce::ReductionMap* map, Rng* rng,
                          Agreement* tally) {
  size_t built = 0;
  for (const auto& [level, to_r] : HubLevels(r, m)) {
    const auto expand = [&](std::span<const NodeId> level_ids) {
      Clique out;
      for (NodeId v : level_ids) {
        if (map == nullptr) {
          out.push_back(to_r[v]);
        } else {
          const std::span<const NodeId> twins = map->ClassOf(to_r[v]);
          out.insert(out.end(), twins.begin(), twins.end());
        }
      }
      return out;
    };
    std::vector<NodeId> all(level.num_nodes());
    std::iota(all.begin(), all.end(), 0);
    const Clique ids = expand(all);
    const MaximalityIndex index = MaximalityIndex::Build(g, ids);
    if (!index.built()) continue;
    ++built;
    NaiveMce(level, [&](std::span<const NodeId> c) {
      const Clique clique = expand(c);
      tally->Check(index, clique);
      if (clique.size() > 1) {
        tally->Check(index, Clique(clique.begin() + 1, clique.end()));
      }
    });
    for (int draw = 0; draw < 50; ++draw) {
      Clique set = ids;
      rng->Shuffle(&set);
      set.resize(1 + rng->NextBounded(std::min<size_t>(ids.size(), 8)));
      tally->Check(index, set);
    }
  }
  return built;
}

// The rows answer exactly as the sorted-list merges do, on member sets
// drawn from every hub level of seeded ER, BA and planted-clique graphs.
TEST(MaximalityIndexTest, MatchesIsMaximalInGraphOnEveryHubLevel) {
  Rng rng(26);
  std::vector<std::pair<Graph, uint32_t>> graphs;
  graphs.emplace_back(gen::ErdosRenyiGnp(60, 0.2, &rng), 8);
  graphs.emplace_back(gen::ErdosRenyiGnp(90, 0.3, &rng), 28);
  graphs.emplace_back(gen::BarabasiAlbert(120, 4, &rng), 6);
  graphs.emplace_back(gen::BarabasiAlbert(200, 3, &rng), 5);
  graphs.emplace_back(gen::OverlayRandomCliques(
                          gen::ErdosRenyiGnp(100, 0.06, &rng), 6, 5, 12,
                          false, &rng),
                      6);
  for (size_t i = 0; i < graphs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "graph " << i);
    const Graph& g = graphs[i].first;
    Agreement tally{&g};
    EXPECT_GT(CheckEveryHubLevel(g, g, graphs[i].second, nullptr, &rng,
                                 &tally),
              0u);
    EXPECT_GT(tally.maximal, 0u);
    EXPECT_GT(tally.extendable, 0u);
  }
}

// Under the reduction prepass a level's cliques hold original ids that
// come through the twin classes: a BA graph blown up by K2s (each node an
// adjacent twin pair) reduces to pipeline nodes with two-member classes,
// and the rows over those members answer as IsMaximalInGraph does.
TEST(MaximalityIndexTest, MatchesIsMaximalInGraphThroughTwinClasses) {
  Rng rng(7);
  const Graph base = gen::BarabasiAlbert(150, 3, &rng);
  GraphBuilder b(2 * base.num_nodes());
  for (NodeId u = 0; u < base.num_nodes(); ++u) {
    b.AddEdge(2 * u, 2 * u + 1);
    for (NodeId v : base.Neighbors(u)) {
      if (u > v) continue;
      for (NodeId x : {2 * u, 2 * u + 1}) {
        for (NodeId y : {2 * v, 2 * v + 1}) b.AddEdge(x, y);
      }
    }
  }
  const Graph g = b.Build();
  const reduce::ReductionResult reduced =
      reduce::ReduceGraph(g, reduce::ReduceOptions{});
  ASSERT_FALSE(reduced.unchanged);
  const uint32_t m = 8;
  bool twin_hub = false;
  for (const auto& [level, to_r] : HubLevels(reduced.graph, m)) {
    for (NodeId r : to_r) twin_hub |= reduced.map.ClassOf(r).size() > 1;
  }
  ASSERT_TRUE(twin_hub);
  Agreement tally{&g};
  EXPECT_GT(CheckEveryHubLevel(g, reduced.graph, m, &reduced.map, &rng,
                               &tally),
            0u);
  EXPECT_GT(tally.maximal, 0u);
  EXPECT_GT(tally.extendable, 0u);
}

// A clique longer than the member rows IsMaximal keeps inline: a planted
// 80-clique of hubs, whole (maximal) and less one member (extendable),
// plus 70-member sets of hubs.
TEST(MaximalityIndexTest, MatchesIsMaximalInGraphOnLongCliques) {
  Rng rng(80);
  std::vector<NodeId> planted(80);
  std::iota(planted.begin(), planted.end(), 40);
  const Graph g =
      gen::OverlayCliques(gen::ErdosRenyiGnp(400, 0.03, &rng), {planted});
  std::vector<NodeId> ids;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.Degree(u) >= 20) ids.push_back(u);
  }
  ASSERT_GT(ids.size(), 70u);
  const MaximalityIndex index = MaximalityIndex::Build(g, ids);
  ASSERT_TRUE(index.built());
  EXPECT_TRUE(index.IsMaximal(planted));
  EXPECT_FALSE(index.IsMaximal(
      std::span<const NodeId>(planted.begin() + 1, planted.end())));
  Agreement tally{&g};
  tally.Check(index, planted);
  tally.Check(index, Clique(planted.begin() + 1, planted.end()));
  for (int draw = 0; draw < 20; ++draw) {
    Clique set = ids;
    rng.Shuffle(&set);
    set.resize(70);
    tally.Check(index, set);
  }
}

}  // namespace
}  // namespace mce::decomp
