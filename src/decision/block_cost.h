// Predictive cost model for BLOCK-ANALYSIS tasks.
//
// The execution engine needs a pre-execution score for every block at the
// moment it is emitted: the pooled executor dispatches ready tasks
// largest-predicted-first (so a late-emitted giant block cannot stall a
// level's tail behind small work) and coalesces blocks predicted below a
// threshold into batches of comparable predicted work. The model reuses
// the same five features the bestfit classifier consumes (decision/
// features.h) — nothing new is measured on the block.
//
// The shape follows Eppstein–Löffler–Strash: a graph of degeneracy d has
// at most (n − d) · 3^(d/3) maximal cliques, and the BK recursion visits a
// tree of that order, while the linear n + m term covers storage
// construction and near-empty blocks. Density scales the exponential term
// because sparse blocks prune far below the degeneracy bound. Units are
// abstract "work units" (roughly adjacency probes), comparable across
// blocks of one run — only the ordering and the ratio to the batching
// threshold matter, never the absolute value.

#ifndef MCE_DECISION_BLOCK_COST_H_
#define MCE_DECISION_BLOCK_COST_H_

#include <cstddef>

#include "decision/features.h"

namespace mce::decision {

/// Predicted BLOCK-ANALYSIS cost of a block with the given features, in
/// work units. Monotone in every feature; always >= 1 for non-empty
/// blocks so thresholds and ratios are well defined. When the
/// graph-reduction prepass is on, blocks are grown from the reduced
/// graph, so the features scored here are the post-reduction ones — the
/// model never sees (and never over-budgets for) vertices the prepass
/// already stripped. The features are invariant under the degeneracy
/// relabeling of block-local ids (n, m, density, and degeneracy are all
/// isomorphism-invariant), so scoring after the relabel changes nothing.
double EstimateBlockCost(const BlockFeatures& features);

/// The features EstimateBlockCost reads: ComputeFeatures without d*,
/// which the model ignores and which costs an extra degree pass.
BlockFeatures CostFeatures(const Graph& g);

/// Convenience: CostFeatures + EstimateBlockCost.
double EstimateBlockCost(const Graph& g);

/// Number of contiguous kernel-range shards a block of predicted `cost`
/// would split into so each shard's share is at most `max_cost`:
/// clamp(ceil(cost / max_cost), 1, kernels). A non-positive `max_cost`
/// disables splitting (returns 1), as does a block with <= 1 kernel. The
/// executors run every block whole; perfbench's shard probe still uses
/// this to measure what splitting a block would cost.
size_t PlanShardCount(double cost, double max_cost, size_t kernels);

}  // namespace mce::decision

#endif  // MCE_DECISION_BLOCK_COST_H_
