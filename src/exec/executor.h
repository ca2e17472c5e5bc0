// Executor: pluggable engines that run the FIND-MAX-CLIQUES task graph
// (exec/task_graph.h).
//
// Every executor honors the delivery contract of DESIGN.md §7: the clique
// callback and the block observer run only on the thread that called
// Run(), blocks surface in decomposition order, levels in recursion order
// — so all executors produce byte-identical emission.
// What differs is scheduling:
//
//   SerialExecutor  — depth-first on the calling thread; each BlockTask
//                     runs the moment DecomposeTask emits its block, so
//                     memory stays O(graph + largest block).
//   PooledExecutor  — BlockTasks dispatch to a shared ThreadPool as
//                     BuildBlocks emits them, each filtering its own
//                     cliques and buffering the survivors, shallowest
//                     level first; DecomposeTask(h+1) is submitted right
//                     after Cut(h) so it overlaps the tail of level-h
//                     analysis.
//
// The simulated-cluster wrapper lives in exec/cluster_executor.h.

#ifndef MCE_EXEC_EXECUTOR_H_
#define MCE_EXEC_EXECUTOR_H_

#include <cstddef>
#include <memory>

#include "decomp/find_max_cliques.h"
#include "exec/task_graph.h"
#include "graph/graph.h"

namespace mce::exec {

class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs the full task graph over `g`. `emit` receives each maximal
  /// clique of g (sorted, original ids) exactly once, already past the
  /// Lemma-1 filter, in an order independent of the executor.
  virtual decomp::StreamingStats Run(
      const Graph& g, const decomp::FindMaxCliquesOptions& options,
      const decomp::LeveledCliqueCallback& emit) = 0;
};

std::unique_ptr<Executor> MakeSerialExecutor();
std::unique_ptr<Executor> MakePooledExecutor(size_t num_threads);

/// Resolves options.executor and options.num_threads (0 = one per hardware
/// thread) into a concrete engine: kAuto picks serial at one thread,
/// pooled otherwise.
std::unique_ptr<Executor> MakeExecutor(
    const decomp::FindMaxCliquesOptions& options);

/// 0 means one worker per hardware thread; otherwise the request stands.
size_t ResolveThreadCount(uint32_t requested);

/// Runs `executor` and assembles the batch result: every emitted clique
/// with its origin level, in (clique, level) order (ids lexicographically,
/// a clique before its extensions, then the level), plus the streaming
/// stats. Shared by decomp::FindMaxCliques and MaxCliqueFinder::Find.
///
/// No heap object is sorted. While the run streams, each clique is
/// appended as [size, level, ids...] to a flat arena picked by its
/// smallest id shifted right to at most 4,096 buckets. Afterwards the
/// buckets are drained in id order: each one's cliques are sorted as
/// 16-byte records (their leading ids packed into a uint64 key, plus a
/// pointer into the arena), built into the reserved result, and the
/// bucket is freed. The peak is the result, the buckets not yet drained
/// and the largest bucket's records.
decomp::FindMaxCliquesResult CollectToResult(
    Executor& executor, const Graph& g,
    const decomp::FindMaxCliquesOptions& options);

}  // namespace mce::exec

#endif  // MCE_EXEC_EXECUTOR_H_
