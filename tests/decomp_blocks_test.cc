#include "decomp/blocks.h"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "decomp/cut.h"
#include "gen/generators.h"
#include "gen/social.h"
#include "gen/special.h"
#include "mce/naive.h"
#include "reduce/relabel.h"
#include "test_util.h"
#include "util/random.h"

namespace mce::decomp {
namespace {

/// Structural invariants of Algorithm 3, checked for any decomposition.
void CheckBlockInvariants(const Graph& g, const std::vector<NodeId>& feasible,
                          const std::vector<Block>& blocks, uint32_t m) {
  std::unordered_set<NodeId> feasible_set(feasible.begin(), feasible.end());
  std::unordered_map<NodeId, int> kernel_block;  // node -> block index

  for (size_t bi = 0; bi < blocks.size(); ++bi) {
    const Block& block = blocks[bi];
    // Block size bound.
    EXPECT_LE(block.num_nodes(), m) << "block " << bi;
    ASSERT_EQ(block.roles.size(), block.subgraph.to_parent.size());
    ASSERT_FALSE(block.kernel_local.empty());

    std::unordered_set<NodeId> block_parents(block.subgraph.to_parent.begin(),
                                             block.subgraph.to_parent.end());
    for (NodeId local : block.kernel_local) {
      EXPECT_EQ(block.roles[local], NodeRole::kKernel);
      const NodeId parent = block.subgraph.to_parent[local];
      // Kernels are feasible and belong to exactly one block.
      EXPECT_TRUE(feasible_set.count(parent));
      EXPECT_EQ(kernel_block.count(parent), 0u)
          << "node " << parent << " kernel twice";
      kernel_block[parent] = static_cast<int>(bi);
      // All neighbors of a kernel are inside the block.
      for (NodeId nbr : g.Neighbors(parent)) {
        EXPECT_TRUE(block_parents.count(nbr))
            << "neighbor " << nbr << " of kernel " << parent
            << " missing from block " << bi;
      }
    }
  }
  // Kernels form a partition of the feasible set.
  EXPECT_EQ(kernel_block.size(), feasible.size());

  // Visited nodes are exactly the block members that were kernels of
  // earlier blocks; border nodes were never kernels before this block.
  for (size_t bi = 0; bi < blocks.size(); ++bi) {
    const Block& block = blocks[bi];
    for (NodeId local = 0; local < block.roles.size(); ++local) {
      const NodeId parent = block.subgraph.to_parent[local];
      auto it = kernel_block.find(parent);
      switch (block.roles[local]) {
        case NodeRole::kKernel:
          ASSERT_NE(it, kernel_block.end());
          EXPECT_EQ(it->second, static_cast<int>(bi));
          break;
        case NodeRole::kVisited:
          ASSERT_NE(it, kernel_block.end());
          EXPECT_LT(it->second, static_cast<int>(bi));
          break;
        case NodeRole::kBorder:
          if (it != kernel_block.end()) {
            EXPECT_GT(it->second, static_cast<int>(bi));
          }
          break;
      }
    }
  }
}

TEST(BlocksTest, Figure1DecompositionInvariants) {
  Graph g = mce::test::Figure1Graph();
  const uint32_t m = 5;
  CutResult cut = Cut(g, m);
  BlocksOptions options;
  options.max_block_size = m;
  std::vector<Block> blocks = BuildBlocks(g, cut.feasible, options);
  CheckBlockInvariants(g, cut.feasible, blocks, m);
  // Hubs never appear as kernels but do appear as borders somewhere (their
  // neighborhoods are distributed among the blocks).
  using namespace mce::test;
  bool hub_seen_as_border = false;
  for (const Block& block : blocks) {
    for (NodeId local = 0; local < block.roles.size(); ++local) {
      NodeId parent = block.subgraph.to_parent[local];
      if (parent == D || parent == S || parent == E) {
        EXPECT_NE(block.roles[local], NodeRole::kKernel);
        if (block.roles[local] == NodeRole::kBorder) {
          hub_seen_as_border = true;
        }
      }
    }
  }
  EXPECT_TRUE(hub_seen_as_border);
}

// Section 3.2: "every maximal clique occurs in at least one block" — every
// maximal clique with at least one feasible node must be fully contained in
// the block where some member is a kernel and, in the first such block (by
// build order), contain no visited node.
void CheckCliqueCoverage(const Graph& g, const std::vector<NodeId>& feasible,
                         const std::vector<Block>& blocks) {
  std::unordered_set<NodeId> feasible_set(feasible.begin(), feasible.end());
  CliqueSet all = NaiveMceSet(g);
  for (const Clique& clique : all.cliques()) {
    bool has_feasible = false;
    for (NodeId v : clique) {
      if (feasible_set.count(v)) has_feasible = true;
    }
    if (!has_feasible) continue;
    // Find a block containing the whole clique with >= 1 kernel member and
    // no visited member.
    bool covered = false;
    for (const Block& block : blocks) {
      std::unordered_map<NodeId, NodeId> to_local;
      for (NodeId local = 0; local < block.subgraph.to_parent.size();
           ++local) {
        to_local[block.subgraph.to_parent[local]] = local;
      }
      bool whole = true, has_kernel = false, has_visited = false;
      for (NodeId v : clique) {
        auto it = to_local.find(v);
        if (it == to_local.end()) {
          whole = false;
          break;
        }
        if (block.roles[it->second] == NodeRole::kKernel) has_kernel = true;
        if (block.roles[it->second] == NodeRole::kVisited) has_visited = true;
      }
      if (whole && has_kernel && !has_visited) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "clique of size " << clique.size()
                         << " not covered without visited nodes";
  }
}

TEST(BlocksTest, EveryCliqueCoveredOnRandomGraphs) {
  Rng rng(31);
  for (int trial = 0; trial < 6; ++trial) {
    Graph g = gen::ErdosRenyiGnp(40, 0.1 + 0.05 * trial, &rng);
    const uint32_t m = 12;
    CutResult cut = Cut(g, m);
    BlocksOptions options;
    options.max_block_size = m;
    std::vector<Block> blocks = BuildBlocks(g, cut.feasible, options);
    CheckBlockInvariants(g, cut.feasible, blocks, m);
    CheckCliqueCoverage(g, cut.feasible, blocks);
  }
}

TEST(BlocksTest, SeedPoliciesAllSatisfyInvariants) {
  Rng rng(33);
  Graph g = gen::BarabasiAlbert(120, 3, &rng);
  const uint32_t m = 30;
  CutResult cut = Cut(g, m);
  for (SeedPolicy policy : {SeedPolicy::kLowestDegree,
                            SeedPolicy::kHighestDegree,
                            SeedPolicy::kFirstId}) {
    BlocksOptions options;
    options.max_block_size = m;
    options.seed_policy = policy;
    std::vector<Block> blocks = BuildBlocks(g, cut.feasible, options);
    CheckBlockInvariants(g, cut.feasible, blocks, m);
  }
}

TEST(BlocksTest, HighThresholdProducesMoreBlocks) {
  Rng rng(35);
  Graph g = gen::ErdosRenyiGnp(80, 0.15, &rng);
  const uint32_t m = 40;
  CutResult cut = Cut(g, m);
  BlocksOptions loose;
  loose.max_block_size = m;
  loose.min_adjacency = 1;
  BlocksOptions strict;
  strict.max_block_size = m;
  strict.min_adjacency = 4;  // only strongly-attached candidates join
  std::vector<Block> loose_blocks = BuildBlocks(g, cut.feasible, loose);
  std::vector<Block> strict_blocks = BuildBlocks(g, cut.feasible, strict);
  EXPECT_GE(strict_blocks.size(), loose_blocks.size());
  CheckBlockInvariants(g, cut.feasible, strict_blocks, m);
}

TEST(BlocksTest, InfeasibleCandidateDoesNotStopAbsorption) {
  // Regression: growth used to `break` at the first candidate whose
  // un-absorbed neighborhood overflows m, even though a later candidate
  // with a smaller neighborhood still fits (Algorithm 3 guards
  // feasibility per absorption, not per block).
  //
  //   s(0) - A(1), s - B(2); A - {3,4,5}; B - 6.
  //
  // From seed s with m = 5: A wins the adjacency tie (smaller id) but
  // absorbing it needs |{0,1,2,3,4,5}| = 6 > 5. B (and then b1 = 6) still
  // fit, so the first block must keep absorbing past A.
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 3);
  b.AddEdge(1, 4);
  b.AddEdge(1, 5);
  b.AddEdge(2, 6);
  Graph g = b.Build();
  const uint32_t m = 5;
  CutResult cut = Cut(g, m);
  // Everyone is feasible (max degree 4 < m).
  ASSERT_EQ(cut.feasible.size(), g.num_nodes());
  BlocksOptions options;
  options.max_block_size = m;
  options.seed_policy = SeedPolicy::kFirstId;
  std::vector<Block> blocks = BuildBlocks(g, cut.feasible, options);
  CheckBlockInvariants(g, cut.feasible, blocks, m);
  CheckCliqueCoverage(g, cut.feasible, blocks);
  ASSERT_FALSE(blocks.empty());
  // The seed block absorbs B and b1 as kernels despite A's infeasibility
  // (the old break produced a single-kernel block {s}).
  EXPECT_EQ(blocks[0].kernel_local.size(), 3u);
  std::set<NodeId> kernels;
  for (NodeId local : blocks[0].kernel_local) {
    kernels.insert(blocks[0].subgraph.to_parent[local]);
  }
  EXPECT_EQ(kernels, (std::set<NodeId>{0, 2, 6}));
}

TEST(BlocksTest, IsolatedNodesGetSingletonBlocks) {
  GraphBuilder b;
  b.ReserveNodes(3);
  Graph g = b.Build();
  std::vector<NodeId> feasible{0, 1, 2};
  BlocksOptions options;
  options.max_block_size = 4;
  std::vector<Block> blocks = BuildBlocks(g, feasible, options);
  ASSERT_EQ(blocks.size(), 3u);
  for (const Block& block : blocks) {
    EXPECT_EQ(block.num_nodes(), 1u);
    EXPECT_EQ(block.kernel_local.size(), 1u);
  }
}

TEST(BlocksTest, EmptyFeasibleSetYieldsNoBlocks) {
  Graph g = gen::Complete(6);
  BlocksOptions options;
  options.max_block_size = 3;
  EXPECT_TRUE(BuildBlocks(g, {}, options).empty());
}

TEST(BlocksTest, DeterministicAcrossRuns) {
  Rng rng(37);
  Graph g = gen::BarabasiAlbert(100, 3, &rng);
  const uint32_t m = 25;
  CutResult cut = Cut(g, m);
  BlocksOptions options;
  options.max_block_size = m;
  std::vector<Block> b1 = BuildBlocks(g, cut.feasible, options);
  std::vector<Block> b2 = BuildBlocks(g, cut.feasible, options);
  ASSERT_EQ(b1.size(), b2.size());
  for (size_t i = 0; i < b1.size(); ++i) {
    EXPECT_EQ(b1[i].subgraph.to_parent, b2[i].subgraph.to_parent);
    EXPECT_EQ(b1[i].kernel_local, b2[i].kernel_local);
  }
}

// ---------------------------------------------------------------------------
// Reference Algorithm 3: the hash-set / hash-map builder the library shipped
// before its flat per-level scratch, kept here verbatim (including its own
// hash-map induction) as the specification the production builder must
// reproduce block for block — seeds, the max-adjacency pick and its
// smaller-id tie-break, per-block rejections, roles, and relabeling.

std::vector<NodeId> ReferenceOrderSeeds(const Graph& g,
                                        const std::vector<NodeId>& feasible,
                                        SeedPolicy policy) {
  std::vector<NodeId> seeds = feasible;
  switch (policy) {
    case SeedPolicy::kLowestDegree:
      std::stable_sort(seeds.begin(), seeds.end(), [&g](NodeId a, NodeId b) {
        if (g.Degree(a) != g.Degree(b)) return g.Degree(a) < g.Degree(b);
        return a < b;
      });
      break;
    case SeedPolicy::kHighestDegree:
      std::stable_sort(seeds.begin(), seeds.end(), [&g](NodeId a, NodeId b) {
        if (g.Degree(a) != g.Degree(b)) return g.Degree(a) > g.Degree(b);
        return a < b;
      });
      break;
    case SeedPolicy::kFirstId:
      std::sort(seeds.begin(), seeds.end());
      break;
  }
  return seeds;
}

InducedSubgraph ReferenceInduce(const Graph& g, std::vector<NodeId> sorted) {
  std::sort(sorted.begin(), sorted.end());
  std::unordered_map<NodeId, NodeId> to_local;
  for (NodeId i = 0; i < sorted.size(); ++i) to_local.emplace(sorted[i], i);
  std::vector<uint64_t> offsets(sorted.size() + 1, 0);
  std::vector<NodeId> adjacency;
  for (NodeId local_u = 0; local_u < sorted.size(); ++local_u) {
    for (NodeId v : g.Neighbors(sorted[local_u])) {
      auto it = to_local.find(v);
      if (it != to_local.end()) adjacency.push_back(it->second);
    }
    offsets[local_u + 1] = adjacency.size();
  }
  return InducedSubgraph{
      Graph::FromSortedCsr(std::move(offsets), std::move(adjacency)),
      std::move(sorted)};
}

std::vector<Block> ReferenceBuildBlocks(const Graph& g,
                                        const std::vector<NodeId>& feasible,
                                        const BlocksOptions& options) {
  const uint32_t m = options.max_block_size;
  std::vector<Block> blocks;
  std::vector<uint8_t> is_feasible(g.num_nodes(), 0);
  for (NodeId v : feasible) is_feasible[v] = 1;
  std::vector<uint8_t> used_kernel(g.num_nodes(), 0);

  for (NodeId seed : ReferenceOrderSeeds(g, feasible, options.seed_policy)) {
    if (used_kernel[seed]) continue;

    std::vector<NodeId> kernel;
    std::unordered_set<NodeId> block_nodes;
    std::unordered_map<NodeId, uint32_t> candidate_adjacency;
    std::unordered_set<NodeId> infeasible;

    auto promote = [&](NodeId n) {
      used_kernel[n] = 1;
      kernel.push_back(n);
      candidate_adjacency.erase(n);
      block_nodes.insert(n);
      for (NodeId w : g.Neighbors(n)) {
        block_nodes.insert(w);
        if (is_feasible[w] && !used_kernel[w] && !infeasible.count(w)) {
          ++candidate_adjacency[w];
        }
      }
    };

    promote(seed);

    for (;;) {
      NodeId best = kInvalidNode;
      uint32_t best_adj = 0;
      for (const auto& [node, adj] : candidate_adjacency) {
        if (best == kInvalidNode || adj > best_adj ||
            (adj == best_adj && node < best)) {
          best = node;
          best_adj = adj;
        }
      }
      if (best == kInvalidNode) break;
      if (best_adj < options.min_adjacency) break;
      uint64_t added = 0;
      for (NodeId w : g.Neighbors(best)) {
        if (!block_nodes.count(w)) ++added;
      }
      if (block_nodes.size() + added > m) {
        infeasible.insert(best);
        candidate_adjacency.erase(best);
        continue;
      }
      promote(best);
    }

    Block block;
    block.subgraph = ReferenceInduce(
        g, std::vector<NodeId>(block_nodes.begin(), block_nodes.end()));
    const auto& to_parent = block.subgraph.to_parent;
    block.roles.resize(to_parent.size());
    std::unordered_set<NodeId> kernel_set(kernel.begin(), kernel.end());
    for (NodeId local = 0; local < to_parent.size(); ++local) {
      const NodeId parent = to_parent[local];
      if (kernel_set.count(parent)) {
        block.roles[local] = NodeRole::kKernel;
        block.kernel_local.push_back(local);
      } else if (used_kernel[parent]) {
        block.roles[local] = NodeRole::kVisited;
      } else {
        block.roles[local] = NodeRole::kBorder;
      }
    }
    if (options.degeneracy_relabel) reduce::DegeneracyRelabelBlock(&block);
    blocks.push_back(std::move(block));
  }
  return blocks;
}

void ExpectSameBlocks(const std::vector<Block>& got,
                      const std::vector<Block>& want,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].subgraph.to_parent, want[i].subgraph.to_parent)
        << where << " block " << i;
    EXPECT_EQ(got[i].roles, want[i].roles) << where << " block " << i;
    EXPECT_EQ(got[i].kernel_local, want[i].kernel_local)
        << where << " block " << i;
    // Graph equality compares the CSR offsets and rows.
    EXPECT_TRUE(got[i].subgraph.graph == want[i].subgraph.graph)
        << where << " block " << i;
  }
}

struct NamedGraph {
  std::string name;
  Graph graph;
};

/// A 40-leaf star plus a few leaf-leaf edges. Once cut, the hub is a
/// non-kernel member of every block, and no neighbor outranks it, so its
/// oriented row is empty.
Graph StarWithLeafEdges() {
  GraphBuilder b(41);
  for (NodeId leaf = 1; leaf <= 40; ++leaf) b.AddEdge(0, leaf);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(5, 9);
  b.AddEdge(10, 30);
  b.AddEdge(39, 40);
  return b.Build();
}

std::vector<NamedGraph> ReferenceCorpus() {
  Rng rng(43);
  std::vector<NamedGraph> corpus;
  corpus.push_back({"figure1", mce::test::Figure1Graph()});
  corpus.push_back({"er", gen::ErdosRenyiGnp(70, 0.12, &rng)});
  corpus.push_back({"ba", gen::BarabasiAlbert(200, 4, &rng)});
  corpus.push_back({"ws", gen::WattsStrogatz(150, 8, 0.2, &rng)});
  corpus.push_back(
      {"facebook", gen::GenerateSocialNetwork(gen::FacebookConfig(0.01))});
  corpus.push_back(
      {"twitter1", gen::GenerateSocialNetwork(gen::Twitter1Config(0.02))});
  // Orientation edge cases: an empty hub row, every degree tied (the rank
  // falls back to id), and a block that is one clique.
  corpus.push_back({"star+leaf edges", StarWithLeafEdges()});
  corpus.push_back({"ring lattice", gen::WattsStrogatz(60, 6, 0.0, &rng)});
  corpus.push_back({"complete12", gen::Complete(12)});
  return corpus;
}

TEST(BlocksTest, MatchesReferenceAlgorithm3) {
  for (const NamedGraph& ng : ReferenceCorpus()) {
    const Graph& g = ng.graph;
    const uint32_t max_degree = g.MaxDegree();
    // Small m leaves hubs (multi-level runs); max degree + 1 makes every
    // node feasible.
    for (const uint32_t m :
         {max_degree / 3 + 2, max_degree / 2 + 2, max_degree + 1}) {
      const CutResult cut = Cut(g, m);
      for (SeedPolicy policy : {SeedPolicy::kLowestDegree,
                                SeedPolicy::kHighestDegree,
                                SeedPolicy::kFirstId}) {
        for (uint32_t min_adjacency : {1u, 2u, 3u}) {
          for (bool relabel : {false, true}) {
            BlocksOptions options;
            options.max_block_size = m;
            options.seed_policy = policy;
            options.min_adjacency = min_adjacency;
            options.degeneracy_relabel = relabel;
            const std::string where =
                ng.name + " m=" + std::to_string(m) + " policy=" +
                std::to_string(static_cast<int>(policy)) +
                " min_adjacency=" + std::to_string(min_adjacency) +
                " relabel=" + std::to_string(relabel);
            ExpectSameBlocks(BuildBlocks(g, cut.feasible, options),
                             ReferenceBuildBlocks(g, cut.feasible, options),
                             where);
          }
        }
      }
    }
  }
}

TEST(BlocksTest, BackToBackCallsOnDifferentGraphsMatchReference) {
  // Each call owns its scratch; growing blocks of one graph must leave
  // nothing behind that changes the blocks of the next.
  const std::vector<NamedGraph> corpus = ReferenceCorpus();
  BlocksOptions options;
  for (size_t i = 0; i + 1 < corpus.size(); ++i) {
    for (size_t k : {i, i + 1, i}) {
      const Graph& g = corpus[k].graph;
      options.max_block_size = g.MaxDegree() / 2 + 2;
      const CutResult cut = Cut(g, options.max_block_size);
      std::vector<Block> streamed;
      BuildBlocksStreaming(g, cut.feasible, options, [&](Block&& b) {
        streamed.push_back(std::move(b));
      });
      ExpectSameBlocks(streamed,
                       ReferenceBuildBlocks(g, cut.feasible, options),
                       corpus[k].name);
    }
  }
}

TEST(BlockTest, RoleCountsAndBytes) {
  Graph g = mce::test::Figure1Graph();
  const uint32_t m = 5;
  CutResult cut = Cut(g, m);
  BlocksOptions options;
  options.max_block_size = m;
  std::vector<Block> blocks = BuildBlocks(g, cut.feasible, options);
  for (const Block& block : blocks) {
    EXPECT_EQ(block.CountRole(NodeRole::kKernel) +
                  block.CountRole(NodeRole::kBorder) +
                  block.CountRole(NodeRole::kVisited),
              block.num_nodes());
    EXPECT_GT(block.EstimatedBytes(), 0u);
  }
}

}  // namespace
}  // namespace mce::decomp
