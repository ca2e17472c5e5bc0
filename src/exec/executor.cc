#include "exec/executor.h"

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/logging.h"

namespace mce::exec {

size_t ResolveThreadCount(uint32_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) {
    // The standard allows hardware_concurrency() to be unknowable; running
    // serially is the only safe default, but doing it silently makes
    // "why is --threads 0 not parallel" undiagnosable.
    MCE_LOG(WARNING) << "hardware_concurrency() returned 0 (unknown); "
                        "--threads 0 falls back to 1 worker";
    return 1;
  }
  return hw;
}

std::unique_ptr<Executor> MakeExecutor(
    const decomp::FindMaxCliquesOptions& options) {
  const size_t threads = ResolveThreadCount(options.num_threads);
  switch (options.executor) {
    case decomp::ExecutorKind::kSerial:
      return MakeSerialExecutor();
    case decomp::ExecutorKind::kPooled:
      return MakePooledExecutor(threads);
    case decomp::ExecutorKind::kAuto:
      break;
  }
  return threads > 1 ? MakePooledExecutor(threads) : MakeSerialExecutor();
}

decomp::FindMaxCliquesResult CollectToResult(
    Executor& executor, const Graph& g,
    const decomp::FindMaxCliquesOptions& options) {
  std::vector<std::pair<Clique, uint32_t>> found;
  decomp::FindMaxCliquesResult out;
  static_cast<decomp::StreamingStats&>(out) = executor.Run(
      g, options, [&found](std::span<const NodeId> clique, uint32_t level) {
        found.emplace_back(Clique(clique.begin(), clique.end()), level);
      });
  std::sort(found.begin(), found.end());

  std::vector<Clique>& cliques = out.cliques.mutable_cliques();
  cliques.reserve(found.size());
  out.origin_level.reserve(found.size());
  for (auto& [clique, origin] : found) {
    // The LeveledCliqueCallback contract: every clique arrives sorted.
    MCE_DCHECK(std::is_sorted(clique.begin(), clique.end()));
    out.origin_level.push_back(origin);
    cliques.push_back(std::move(clique));
  }
  return out;
}

}  // namespace mce::exec
