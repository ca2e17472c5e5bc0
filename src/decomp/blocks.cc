#include "decomp/blocks.h"

#include <algorithm>
#include <cstddef>

#include "graph/subgraph.h"
#include "reduce/relabel.h"
#include "util/check.h"

namespace mce::decomp {

namespace {

/// Sorts seeds according to the policy; ties break toward the smaller id so
/// decomposition is deterministic.
std::vector<NodeId> OrderSeeds(const Graph& g,
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

/// Per-node state bits of the level scratch.
enum : uint8_t {
  kFeasible = 1,     // in `feasible`; fixed for the call
  kUsedKernel = 2,   // kernel of this or an earlier block
  kBlockKernel = 4,  // kernel of the block being grown
  kRejected = 8,     // overflowed m for the block being grown
};

/// Flat scratch of one BuildBlocksStreaming call: sized to the level graph
/// once and reused by every block. Every per-block entry belongs to a
/// member of the block (candidates and kernels are members), so it is
/// reset through the member list and a block's cost is independent of the
/// level's node count.
struct LevelScratch {
  explicit LevelScratch(NodeId n)
      : state(n, 0), local_of(n, kInvalidNode), adjacency(n, 0) {}

  std::vector<uint8_t> state;
  /// Membership in K ∪ N(K) while the block grows (any value other than
  /// kInvalidNode); the parent→local map while it materializes.
  std::vector<NodeId> local_of;
  /// Kernel adjacencies of each candidate border node.
  std::vector<uint32_t> adjacency;
  /// K ∪ N(K) in insertion order, sorted at materialization.
  std::vector<NodeId> members;
  /// Border nodes eligible for promotion: feasible, not yet a kernel
  /// anywhere, not rejected for this block, adjacent to K. Unordered —
  /// the pick's tie-break is total.
  std::vector<NodeId> candidates;

  void AddMember(NodeId v) {
    if (local_of[v] != kInvalidNode) return;
    local_of[v] = 0;
    members.push_back(v);
  }

  void Promote(const Graph& g, NodeId n) {
    state[n] |= kUsedKernel | kBlockKernel;
    AddMember(n);
    for (NodeId w : g.Neighbors(n)) {
      AddMember(w);
      if ((state[w] & (kFeasible | kUsedKernel | kRejected)) == kFeasible &&
          adjacency[w]++ == 0) {
        candidates.push_back(w);
      }
    }
  }
};

}  // namespace

std::vector<Block> BuildBlocks(const Graph& g,
                               const std::vector<NodeId>& feasible,
                               const BlocksOptions& options) {
  std::vector<Block> blocks;
  BuildBlocksStreaming(g, feasible, options,
                       [&blocks](Block&& b) { blocks.push_back(std::move(b)); });
  return blocks;
}

void BuildBlocksStreaming(const Graph& g, const std::vector<NodeId>& feasible,
                          const BlocksOptions& options,
                          const BlockCallback& emit) {
  const uint32_t m = options.max_block_size;
  MCE_CHECK_GE(m, 1u);

  LevelScratch s(g.num_nodes());
  const DegreeOrientation up(g);
  for (NodeId v : feasible) {
    MCE_CHECK(static_cast<uint64_t>(g.Degree(v)) + 1 <= m);
    s.state[v] |= kFeasible;
  }

  for (NodeId seed : OrderSeeds(g, feasible, options.seed_policy)) {
    if (s.state[seed] & kUsedKernel) continue;
    s.Promote(g, seed);

    for (;;) {
      // select(N_f n H): the candidate with the most kernel adjacencies,
      // ties toward the smaller id.
      size_t best_at = 0;
      NodeId best = kInvalidNode;
      uint32_t best_adj = 0;
      for (size_t i = 0; i < s.candidates.size(); ++i) {
        const NodeId v = s.candidates[i];
        const uint32_t adj = s.adjacency[v];
        if (adj > best_adj || (adj == best_adj && v < best)) {
          best_at = i;
          best = v;
          best_adj = adj;
        }
      }
      if (best == kInvalidNode) break;                    // no border left
      if (best_adj < options.min_adjacency) break;        // threshold stop
      s.candidates[best_at] = s.candidates.back();
      s.candidates.pop_back();
      // isfeasible(K u {best}): |K u {best} u N(K u {best})| <= m.
      uint64_t added = 0;
      for (NodeId w : g.Neighbors(best)) {
        if (s.local_of[w] == kInvalidNode) ++added;
      }
      if (s.members.size() + added > m) {
        // Algorithm 3 guards absorption per candidate: this one can never
        // fit (the block only grows, so |K u {n} u N(K u {n})| never
        // shrinks), but a candidate with a smaller un-absorbed
        // neighborhood still may — drop it for this block and keep
        // scanning. It seeds or joins a later block instead.
        s.state[best] |= kRejected;
        continue;
      }
      s.Promote(g, best);
    }

    // Materialize the block: local ids in ascending parent order.
    std::sort(s.members.begin(), s.members.end());
    for (size_t i = 0; i < s.members.size(); ++i) {
      s.local_of[s.members[i]] = static_cast<NodeId>(i);
    }
    Block block;
    block.subgraph.graph = InduceOriented(up, s.members, s.local_of);
    block.roles.resize(s.members.size());
    for (NodeId local = 0; local < s.members.size(); ++local) {
      const NodeId parent = s.members[local];
      const uint8_t state = s.state[parent];
      if (state & kBlockKernel) {
        block.roles[local] = NodeRole::kKernel;
        block.kernel_local.push_back(local);
      } else if (state & kUsedKernel) {
        block.roles[local] = NodeRole::kVisited;
      } else {
        block.roles[local] = NodeRole::kBorder;
      }
      s.local_of[parent] = kInvalidNode;
      s.adjacency[parent] = 0;
      s.state[parent] = state & ~(kBlockKernel | kRejected);
    }
    s.candidates.clear();
    // The block keeps the member list; the next block grows a fresh one.
    block.subgraph.to_parent = std::move(s.members);
    s.members = {};
    if (options.degeneracy_relabel) reduce::DegeneracyRelabelBlock(&block);
    emit(std::move(block));
  }
}

}  // namespace mce::decomp
