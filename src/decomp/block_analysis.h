// Per-block clique detection (Algorithm 4, BLOCK-ANALYSIS).
//
// For each kernel node k of a block, enumerates the maximal cliques that
// contain k but no visited node and no kernel processed earlier; k then
// joins the visited set. Globally — kernels partition the feasible nodes
// and "visited" reflects the block build order — every maximal clique of G
// containing at least one feasible node is reported exactly once, by the
// block owning its first-processed kernel.
//
// The MCE routine is chosen per block: a decision tree over the block's
// features (the paper's bestfit), or a fixed combination.

#ifndef MCE_DECOMP_BLOCK_ANALYSIS_H_
#define MCE_DECOMP_BLOCK_ANALYSIS_H_

#include <cstddef>
#include <cstdint>

#include "decision/decision_tree.h"
#include "decision/features.h"
#include "decomp/block.h"
#include "mce/clique.h"
#include "mce/enumerator.h"
#include "mce/workspace.h"

namespace mce::decomp {

struct BlockAnalysisOptions {
  /// When set, bestfit(block) consults this tree; otherwise `fixed` is used.
  const decision::DecisionTree* tree = nullptr;
  MceOptions fixed = {Algorithm::kTomita, StorageKind::kAdjacencyList};
  /// Memory guard: if the selected dense storage (matrix/bitset) would
  /// exceed this many bytes for the block, fall back to adjacency lists.
  /// 0 disables the guard.
  uint64_t max_storage_bytes = 512ull << 20;
};

struct BlockAnalysisResult {
  /// The data-structure/algorithm combination that actually ran.
  MceOptions used;
  /// Number of cliques emitted by this block.
  uint64_t num_cliques = 0;
};

/// Runs Algorithm 4 on `block`, emitting cliques translated to the parent
/// graph's node ids. With a non-null `workspace`, all scratch memory (the
/// kernel recursion pools, the role/translate buffers, and the dense
/// matrix/bitset views) is drawn from it, so a caller that reuses one
/// workspace per worker thread analyzes a stream of blocks without
/// steady-state allocation; with nullptr a transient workspace is used.
/// `emit` receives each clique as a span into workspace memory that is
/// overwritten by the next clique — it must copy what it keeps.
BlockAnalysisResult AnalyzeBlock(const Block& block,
                                 const BlockAnalysisOptions& options,
                                 const CliqueCallback& emit,
                                 BlockWorkspace* workspace = nullptr);

/// A contiguous range [begin, end) of indices into Block::kernel_local.
/// The executors analyze every block whole, as {0, kernel_local.size()};
/// a narrower range runs one piece of the block (perfbench's shard probe
/// re-analyzes blocks piece by piece).
struct KernelRange {
  size_t begin = 0;
  size_t end = 0;
};

/// Kernel-range overload of Algorithm 4: runs the per-kernel loop only for
/// kernel_local[range.begin, range.end), with every kernel before the
/// range already counted as visited — exactly the loop state the whole-
/// block call reaches when it arrives at range.begin. Concatenating the
/// emissions of consecutive ranges covering [0, kernel_local.size())
/// reproduces the whole-block emission byte for byte. The bestfit
/// classification still looks at the whole block, so every range runs the
/// combination the whole-block call would.
BlockAnalysisResult AnalyzeBlock(const Block& block,
                                 const BlockAnalysisOptions& options,
                                 const CliqueCallback& emit,
                                 BlockWorkspace* workspace, KernelRange range);

/// bestfit(B) as AnalyzeBlock applies it to a block graph `g` with
/// `features`: the tree's choice (or options.fixed, when no tree is set —
/// then `features` is not read), degraded to lists when the dense storage
/// would exceed options.max_storage_bytes, with the seeded-enumeration
/// substitution applied. This is the `used` every AnalyzeBlock call on the
/// block reports.
MceOptions SelectBlockMce(const BlockAnalysisOptions& options, const Graph& g,
                          const decision::BlockFeatures& features);

/// Kernel-range Algorithm 4 with the combination already chosen by
/// SelectBlockMce — the executors classify each block once, at emission,
/// and the block's analysis runs that choice instead of re-deriving the
/// features.
BlockAnalysisResult AnalyzeBlock(const Block& block, const MceOptions& used,
                                 const CliqueCallback& emit,
                                 BlockWorkspace* workspace, KernelRange range);

}  // namespace mce::decomp

#endif  // MCE_DECOMP_BLOCK_ANALYSIS_H_
