// Reusable scratch memory for the MCE kernels and for per-block analysis.
//
// The BK recursion is the innermost loop of the whole pipeline (it runs
// once per kernel node of every block), so its working sets must not be
// allocated per node. Following Eppstein-Löffler-Strash, every recursion
// level draws its buffers from a depth-indexed pool owned by the caller:
// the pool grows only when the search tree first reaches a new depth, and
// every later node at that depth reuses the same storage. One level up,
// a BlockWorkspace bundles those pools with the block-level buffers (role
// flags, id-translation scratch, and grow-only dense views) so that
// consecutive blocks processed by the same worker thread reuse all of it.
//
// Steady state — after the deepest/largest input a workspace has seen —
// performs zero heap allocations (regression-tested in mce_alloc_test).
// None of these types are thread-safe; give each worker its own. The
// pooled executor keys one workspace per pool worker, so every block a
// worker analyzes reuses the buffers its earlier blocks grew.

#ifndef MCE_MCE_WORKSPACE_H_
#define MCE_MCE_WORKSPACE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "graph/graph.h"
#include "graph/views.h"
#include "mce/storage.h"
#include "util/bitset.h"

namespace mce {

/// Depth-indexed frames for the sorted-vector recursion (List/Matrix
/// storages). A frame holds the buffers one recursion node needs:
///  - kept/ext: the node's candidate set P, stably partitioned into the
///    pivot's neighbors (kept) and the branch candidates (ext);
///  - p/x: the child sets handed to the next depth;
///  - in_p/in_x: node-indexed membership flags of the live P and X sets,
///    maintained only by storages with neighbor lists (they turn child-set
///    construction and pivot counting into flag probes along N(v)).
/// std::deque keeps frame references stable while deeper levels append.
struct VectorMceScratch {
  struct Frame {
    std::vector<NodeId> kept;
    std::vector<NodeId> ext;
    std::vector<NodeId> p;
    std::vector<NodeId> x;
    std::vector<uint8_t> in_p;
    std::vector<uint8_t> in_x;
  };

  std::deque<Frame> frames;
  /// The clique under construction (R of the BK recursion).
  std::vector<NodeId> r;

  Frame& FrameAt(size_t depth) {
    while (frames.size() <= depth) frames.emplace_back();
    return frames[depth];
  }
};

/// Depth-indexed frames for the bitset recursion, plus the root-set pair
/// the runner copies its inputs into (so callers can hand in transient
/// bitsets without the runner retaining them).
struct BitsetMceScratch {
  struct Frame {
    Bitset p;
    Bitset x;
    std::vector<NodeId> candidates;
  };

  std::deque<Frame> frames;
  std::vector<NodeId> r;
  Bitset root_p;
  Bitset root_x;
  /// Degree cache for the kMaxDegree pivot rule (unused by other rules).
  std::vector<uint32_t> degree;

  Frame& FrameAt(size_t depth) {
    while (frames.size() <= depth) frames.emplace_back();
    return frames[depth];
  }
};

/// Everything one worker thread needs to analyze a stream of blocks
/// without steady-state allocation: the kernel scratch pools, the
/// Algorithm-4 loop buffers, and grow-only backing for the dense graph
/// views. Plain data on purpose — it is a bag of buffers, not an
/// abstraction; ownership (one per worker) is what gives it meaning.
class BlockWorkspace {
 public:
  BlockWorkspace() = default;
  BlockWorkspace(BlockWorkspace&&) = default;
  BlockWorkspace& operator=(BlockWorkspace&&) = default;

  VectorMceScratch vector_scratch;
  BitsetMceScratch bitset_scratch;

  /// Local-to-parent id translation buffer for the emit path. The emit
  /// callback must copy the span it is handed — this buffer is overwritten
  /// by the very next clique.
  std::vector<NodeId> translate;

  /// Role flags and per-seed candidate buffers for the vector loop.
  std::vector<uint8_t> in_p;
  std::vector<uint8_t> in_v;
  std::vector<NodeId> p;
  std::vector<NodeId> x;

  /// Block-wide and per-seed set pairs for the bitset loop.
  Bitset block_p;
  Bitset block_x;
  Bitset seed_p;
  Bitset seed_x;

  /// Dense views over `g`, rebuilt in place (grow-only; see
  /// AdjacencyMatrix::Assign / BitsetGraph::Assign). The reference is valid
  /// until the next call with a different graph.
  const MatrixStorage& Matrix(const Graph& g);
  const BitsetGraph& BitsetRows(const Graph& g);

 private:
  MatrixStorage matrix_;
  BitsetGraph bitset_graph_;
};

}  // namespace mce

#endif  // MCE_MCE_WORKSPACE_H_
