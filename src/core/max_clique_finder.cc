#include "core/max_clique_finder.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "exec/executor.h"
#include "util/timer.h"

namespace mce {

MaxCliqueFinder::MaxCliqueFinder(Options options)
    : options_(std::move(options)), paper_tree_(decision::PaperDecisionTree()) {}

Result<uint32_t> MaxCliqueFinder::ResolveBlockSize(const Graph& g) const {
  if (options_.max_block_size > 0) return options_.max_block_size;
  if (!(options_.block_size_ratio > 0.0) || options_.block_size_ratio > 1.0) {
    return Status::InvalidArgument(
        "block_size_ratio must be in (0, 1] when max_block_size is 0");
  }
  const uint32_t d = g.MaxDegree();
  const uint32_t m = static_cast<uint32_t>(
      std::ceil(options_.block_size_ratio * static_cast<double>(d)));
  return std::max<uint32_t>(2, m);
}

Result<FindResult> MaxCliqueFinder::Find(const Graph& g) const {
  MCE_ASSIGN_OR_RETURN(uint32_t m, ResolveBlockSize(g));
  if (options_.min_adjacency == 0) {
    return Status::InvalidArgument("min_adjacency must be >= 1");
  }
  if (options_.simulate_cluster) {
    const Status valid = dist::ValidateClusterConfig(options_.cluster);
    if (!valid.ok()) return valid;
  }

  decomp::FindMaxCliquesOptions pipeline = options_;
  pipeline.max_block_size = m;
  if (!options_.use_decision_tree) {
    pipeline.tree = nullptr;
  } else if (pipeline.tree == nullptr) {
    pipeline.tree = &paper_tree_;
  }

  FindResult out;
  out.effective_block_size = m;
  const Timer wall;
  std::unique_ptr<exec::Executor> executor = exec::MakeExecutor(pipeline);
  decomp::FindMaxCliquesResult& collected = out;
  if (options_.simulate_cluster) {
    exec::SimulatedClusterExecutor cluster(options_.cluster,
                                           std::move(executor));
    collected = exec::CollectToResult(cluster, g, pipeline);
    out.cluster = cluster.Summary();
  } else {
    collected = exec::CollectToResult(*executor, g, pipeline);
  }
  out.stats = ComputeRunStats(out);
  out.stats.wall_seconds = wall.ElapsedSeconds();
  return out;
}

}  // namespace mce
