#include "decision/block_cost.h"

#include <algorithm>
#include <cmath>

#include "graph/core_decomposition.h"

namespace mce::decision {

double EstimateBlockCost(const BlockFeatures& f) {
  // Linear term: storage construction and the per-node seed loop.
  const double linear = f.num_nodes + f.num_edges;
  // Enumeration term: the Eppstein bound (n − d) · 3^(d/3) on the BK
  // search tree, with each tree node costing ~d set operations. Density
  // discounts blocks whose candidate sets prune far below the bound.
  // Degeneracy is capped only by the block bound m, so the double stays
  // finite for every feasible block (3^(m/3) with m in the thousands
  // would overflow — clamp the exponent to keep the ordering usable).
  const double d = std::min(f.degeneracy, 120.0);
  const double span = std::max(1.0, f.num_nodes - f.degeneracy);
  const double tree = span * std::max(1.0, f.degeneracy) *
                      std::pow(3.0, d / 3.0);
  return std::max(1.0, linear + f.density * tree);
}

BlockFeatures CostFeatures(const Graph& g) {
  BlockFeatures f;
  f.num_nodes = static_cast<double>(g.num_nodes());
  f.num_edges = static_cast<double>(g.num_edges());
  f.density = g.Density();
  f.degeneracy = static_cast<double>(Degeneracy(g));
  return f;
}

double EstimateBlockCost(const Graph& g) {
  return EstimateBlockCost(CostFeatures(g));
}

size_t PlanShardCount(double cost, double max_cost, size_t kernels) {
  if (!(max_cost > 0) || kernels <= 1 || cost <= max_cost) return 1;
  const double want = std::ceil(cost / max_cost);
  if (want >= static_cast<double>(kernels)) return kernels;
  return static_cast<size_t>(want);
}

}  // namespace mce::decision
