// MaxCliqueFinder — the library's public entry point.
//
// Wraps the complete pipeline of the paper: two-level decomposition,
// decision-tree-driven per-block enumeration, hub recursion, Lemma 1
// filtering, and (optionally) the simulated distributed execution. Typical
// use:
//
//   mce::MaxCliqueFinder::Options options;
//   options.block_size_ratio = 0.5;   // m = 0.5 * max degree (paper's m/d)
//   mce::MaxCliqueFinder finder(options);
//   auto result = finder.Find(graph);
//   if (!result.ok()) { ... }
//   for (const mce::Clique& c : result->cliques.cliques()) { ... }

#ifndef MCE_CORE_MAX_CLIQUE_FINDER_H_
#define MCE_CORE_MAX_CLIQUE_FINDER_H_

#include <optional>

#include "core/run_stats.h"
#include "decision/decision_tree.h"
#include "decomp/find_max_cliques.h"
#include "dist/cluster.h"
#include "exec/cluster_executor.h"
#include "graph/graph.h"
#include "util/status.h"

namespace mce {

/// The pipeline result (cliques, origin levels, per-level and run stats)
/// plus what the facade derives from it.
struct FindResult : decomp::FindMaxCliquesResult {
  RunStats stats;
  /// The block bound m that was actually used.
  uint32_t effective_block_size = 0;
  /// Present when Options::simulate_cluster is set.
  std::optional<exec::ClusterSummary> cluster;
};

class MaxCliqueFinder {
 public:
  /// The pipeline's own options plus the facade's. Two inherited fields
  /// read differently here: max_block_size defaults to 0, meaning "derive
  /// m from block_size_ratio", and `tree` (not owned; must outlive the
  /// finder) overrides the built-in Figure 3 tree.
  struct Options : decomp::FindMaxCliquesOptions {
    Options() { max_block_size = 0; }

    /// When max_block_size == 0: m = max(2, ratio * max_degree(G)) — the
    /// m/d parameterization of Section 6. Must be in (0, 1] then.
    double block_size_ratio = 0.5;
    /// Choose the per-block enumerator with the decision tree (default) or
    /// with `fixed`.
    bool use_decision_tree = true;
    /// Run the block-analysis phase on the simulated cluster and attach a
    /// ClusterSummary to the result.
    bool simulate_cluster = false;
    dist::ClusterConfig cluster;
  };

  MaxCliqueFinder() : MaxCliqueFinder(Options()) {}
  explicit MaxCliqueFinder(Options options);

  /// Validates the options against `g` and runs the pipeline.
  Result<FindResult> Find(const Graph& g) const;

  /// The block bound that Find would use on `g` (after ratio resolution).
  Result<uint32_t> ResolveBlockSize(const Graph& g) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
  decision::DecisionTree paper_tree_;
};

}  // namespace mce

#endif  // MCE_CORE_MAX_CLIQUE_FINDER_H_
