#include "decomp/block_analysis.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "decision/features.h"
#include "graph/views.h"
#include "mce/pivoter.h"
#include "mce/storage.h"
#include "util/check.h"

namespace mce::decomp {

namespace {

/// State shared with the local-to-parent translate callback. The callback
/// captures one pointer to this struct so it fits std::function's inline
/// buffer — a capture of the individual references would heap-allocate on
/// every block.
struct TranslateCtx {
  const Block* block;
  const CliqueCallback* emit;
  std::vector<NodeId>* parent_clique;
  uint64_t count = 0;
};

CliqueCallback MakeTranslate(TranslateCtx* ctx) {
  return [ctx](std::span<const NodeId> local) {
    std::vector<NodeId>& parent = *ctx->parent_clique;
    parent.clear();
    for (NodeId v : local) {
      parent.push_back(ctx->block->subgraph.to_parent[v]);
    }
    ++ctx->count;
    (*ctx->emit)(parent);
  };
}

/// Shared Algorithm 4 loop over vector sets; Storage is ListStorage or
/// MatrixStorage, built once per block by the caller. All buffers come
/// from `ws`, so repeated calls with the same workspace allocate nothing
/// once the buffers have grown to the largest block seen. Only kernels in
/// `range` run; kernels before the range start out visited, so the loop
/// state matches the whole-block call at range.begin exactly.
template <typename Storage>
uint64_t RunVectorLoop(const Block& block, const Storage& storage,
                       PivotRule rule, const CliqueCallback& emit,
                       BlockWorkspace& ws, KernelRange range) {
  const Graph& g = block.subgraph.graph;
  // P starts as K u H; V starts as the block's visited set plus every
  // kernel processed before the range.
  ws.in_p.assign(g.num_nodes(), 0);
  ws.in_v.assign(g.num_nodes(), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (block.roles[v] == NodeRole::kVisited) {
      ws.in_v[v] = 1;
    } else {
      ws.in_p[v] = 1;
    }
  }
  for (size_t i = 0; i < range.begin; ++i) {
    const NodeId k = block.kernel_local[i];
    ws.in_p[k] = 0;
    ws.in_v[k] = 1;
  }
  // Translate local cliques to parent ids on the way out.
  TranslateCtx ctx{&block, &emit, &ws.translate};
  const CliqueCallback translate = MakeTranslate(&ctx);

  VectorMceRunner<Storage> runner(storage, rule, &ws.vector_scratch);
  std::vector<NodeId>& p = ws.p;
  std::vector<NodeId>& x = ws.x;
  for (size_t i = range.begin; i < range.end; ++i) {
    const NodeId k = block.kernel_local[i];
    p.clear();
    x.clear();
    for (NodeId u : g.Neighbors(k)) {
      if (ws.in_v[u]) {
        x.push_back(u);
      } else if (ws.in_p[u]) {
        p.push_back(u);
      }
    }
    // Neighbor lists are sorted, so p and x are sorted.
    const NodeId seed[] = {k};
    runner.Run(seed, p, x, translate);
    ws.in_p[k] = 0;
    ws.in_v[k] = 1;
  }
  return ctx.count;
}

uint64_t RunBitsetLoop(const Block& block, PivotRule rule,
                       const CliqueCallback& emit, BlockWorkspace& ws,
                       KernelRange range) {
  const Graph& g = block.subgraph.graph;
  const BitsetGraph& bg = ws.BitsetRows(g);
  ws.block_p.Reinit(g.num_nodes());
  ws.block_x.Reinit(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (block.roles[u] == NodeRole::kVisited) {
      ws.block_x.Set(u);
    } else {
      ws.block_p.Set(u);
    }
  }
  for (size_t i = 0; i < range.begin; ++i) {
    const NodeId k = block.kernel_local[i];
    ws.block_p.Clear(k);
    ws.block_x.Set(k);
  }
  TranslateCtx ctx{&block, &emit, &ws.translate};
  const CliqueCallback translate = MakeTranslate(&ctx);

  BitsetMceRunner runner(bg, rule, &ws.bitset_scratch);
  for (size_t i = range.begin; i < range.end; ++i) {
    const NodeId k = block.kernel_local[i];
    ws.seed_p = ws.block_p;
    ws.seed_p.And(bg.Row(k));
    ws.seed_x = ws.block_x;
    ws.seed_x.And(bg.Row(k));
    const NodeId seed[] = {k};
    runner.Run(seed, ws.seed_p, ws.seed_x, translate);
    ws.block_p.Clear(k);
    ws.block_x.Set(k);
  }
  return ctx.count;
}

}  // namespace

BlockAnalysisResult AnalyzeBlock(const Block& block,
                                 const BlockAnalysisOptions& options,
                                 const CliqueCallback& emit,
                                 BlockWorkspace* workspace) {
  return AnalyzeBlock(block, options, emit, workspace,
                      KernelRange{0, block.kernel_local.size()});
}

MceOptions SelectBlockMce(const BlockAnalysisOptions& options, const Graph& g,
                          const decision::BlockFeatures& features) {
  MceOptions used =
      options.tree != nullptr ? options.tree->Classify(features)
                              : options.fixed;
  // Memory guard: dense storages are quadratic in the block size; degrade
  // to lists instead of exhausting memory on an oversized block.
  if (options.max_storage_bytes > 0 &&
      used.storage != StorageKind::kAdjacencyList &&
      EstimateStorageBytes(g.num_nodes(), g.num_edges(), used.storage) >
          options.max_storage_bytes) {
    used.storage = StorageKind::kAdjacencyList;
  }
  // Seeded enumeration has no Eppstein/Naive form (see enumerator.h);
  // record the substitution in `used` so consumers (decision-tree
  // training, the Table-1 benches, block observers) attribute the run to
  // the algorithm that actually executed.
  used.algorithm = SeededAlgorithmFor(used.algorithm);
  return used;
}

BlockAnalysisResult AnalyzeBlock(const Block& block,
                                 const BlockAnalysisOptions& options,
                                 const CliqueCallback& emit,
                                 BlockWorkspace* workspace,
                                 KernelRange range) {
  // bestfit(B): classify the block, or use the fixed combination.
  const Graph& g = block.subgraph.graph;
  const decision::BlockFeatures features =
      options.tree != nullptr ? decision::ComputeFeatures(g)
                              : decision::BlockFeatures();
  return AnalyzeBlock(block, SelectBlockMce(options, g, features), emit,
                      workspace, range);
}

BlockAnalysisResult AnalyzeBlock(const Block& block, const MceOptions& used,
                                 const CliqueCallback& emit,
                                 BlockWorkspace* workspace, KernelRange range) {
  const Graph& g = block.subgraph.graph;
  MCE_CHECK_EQ(block.roles.size(), g.num_nodes());
  MCE_CHECK_LE(range.begin, range.end);
  MCE_CHECK_LE(range.end, block.kernel_local.size());

  // Only materialized for workspace-less callers: even an empty workspace
  // costs a few allocations (deque bookkeeping), which would break the
  // steady-state-allocation-free contract for callers that do pass one.
  std::optional<BlockWorkspace> transient;
  BlockWorkspace& ws =
      workspace != nullptr ? *workspace : transient.emplace();

  BlockAnalysisResult result;
  result.used = used;
  const PivotRule rule = RuleFor(used.algorithm);
  switch (used.storage) {
    case StorageKind::kAdjacencyList: {
      ListStorage storage(g);
      result.num_cliques =
          RunVectorLoop(block, storage, rule, emit, ws, range);
      break;
    }
    case StorageKind::kMatrix: {
      result.num_cliques =
          RunVectorLoop(block, ws.Matrix(g), rule, emit, ws, range);
      break;
    }
    case StorageKind::kBitset: {
      result.num_cliques = RunBitsetLoop(block, rule, emit, ws, range);
      break;
    }
  }
  return result;
}

}  // namespace mce::decomp
