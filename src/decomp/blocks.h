// Second-level decomposition (Algorithm 3, BLOCKS).
//
// Greedily grows blocks over the feasible nodes: starting from a seed, the
// candidate border node with the highest adjacency to the current kernel is
// promoted to kernel, as long as the block (kernels plus all their
// neighbors) stays within m nodes and the best candidate's adjacency meets
// a threshold. This yields blocks of heterogeneous size whose interiors are
// dense — the pre-processing effect Section 6.3 credits for the speedups.

#ifndef MCE_DECOMP_BLOCKS_H_
#define MCE_DECOMP_BLOCKS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "decomp/block.h"
#include "graph/graph.h"

namespace mce::decomp {

/// Seed-selection policy for select(N_f) in Algorithm 3 (the paper leaves
/// it open; the default mirrors [10]'s increasing-degree processing).
enum class SeedPolicy : uint8_t {
  kLowestDegree = 0,
  kHighestDegree = 1,
  kFirstId = 2,
};

struct BlocksOptions {
  /// Maximum number of nodes per block (m). Must be >= 1.
  uint32_t max_block_size = 1000;
  /// Candidate border nodes with fewer than this many kernel-adjacencies
  /// stop the growth of the current block.
  uint32_t min_adjacency = 1;
  SeedPolicy seed_policy = SeedPolicy::kLowestDegree;
  /// Relabel each materialized block's local ids into reverse degeneracy
  /// order (reduce::DegeneracyRelabelBlock) before emission, so the
  /// hottest rows share cache lines. Permutes ids only — the analyzed
  /// clique set is unchanged, but Block::subgraph.to_parent is no longer
  /// increasing. Driven by FindMaxCliquesOptions::reduce.
  bool degeneracy_relabel = false;
};

/// Receives each finished block as soon as it is materialized, in
/// decomposition order.
using BlockCallback = std::function<void(Block&&)>;

/// Algorithm 3: decomposes `g` into blocks whose kernels partition
/// `feasible`. Every node of `feasible` must satisfy IsFeasibleNode for
/// options.max_block_size. Node ids in the result are block-local, with
/// Block::subgraph.to_parent mapping back to `g`'s ids.
std::vector<Block> BuildBlocks(const Graph& g,
                               const std::vector<NodeId>& feasible,
                               const BlocksOptions& options);

/// Streaming variant of BuildBlocks: `emit` is invoked on the calling
/// thread for each block the moment its growth finishes, before the next
/// seed is considered. Emission order equals BuildBlocks' vector order.
/// The executors use this to dispatch block analysis while decomposition
/// of the remaining seeds is still running. The call orients `g` by
/// (degree, id) and allocates flat per-node scratch for it once, in
/// O(n + m), and resets the scratch per block through the block's member
/// list. Growth walks the rows of the kernels and of each picked
/// candidate; materialization costs O(sum of oriented out-degrees over
/// K u N(K) + block edges): a hub member contributes only its short
/// oriented row, not its full one (DESIGN.md §7).
void BuildBlocksStreaming(const Graph& g, const std::vector<NodeId>& feasible,
                          const BlocksOptions& options,
                          const BlockCallback& emit);

}  // namespace mce::decomp

#endif  // MCE_DECOMP_BLOCKS_H_
