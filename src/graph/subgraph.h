// Induced subgraphs with id mappings back to the parent graph.
//
// Both decomposition levels rely on induction: the first level recurses on
// the subgraph induced by the hub nodes (procedure `induced` of Algorithm 1),
// and the second level materializes each block as the subgraph induced by
// its kernel/border/visited nodes. Cliques found in the subgraph must be
// reported in the parent's id space, hence the to_parent mapping.

#ifndef MCE_GRAPH_SUBGRAPH_H_
#define MCE_GRAPH_SUBGRAPH_H_

#include <span>
#include <vector>

#include "graph/graph.h"

namespace mce {

/// A subgraph plus the mapping from its compact ids to the parent's ids.
struct InducedSubgraph {
  Graph graph;
  /// to_parent[i] is the parent id of subgraph node i; strictly increasing.
  std::vector<NodeId> to_parent;
};

/// Builds the subgraph of `g` induced by `nodes`.
///
/// `nodes` may be in any order and contain duplicates; the result's node i
/// corresponds to the i-th smallest distinct input id. Sorting the k input
/// ids costs O(k log k); each member's parent row is then intersected with
/// the sorted member list (a merge, or galloping search when one list is
/// far longer), which yields the local rows already sorted and symmetric.
/// Nothing is sized by the parent's node count, so a call on a small set
/// stays cheap on a large graph.
InducedSubgraph Induce(const Graph& g, std::span<const NodeId> nodes);

/// The degree orientation of a graph: each edge kept once, at its endpoint
/// of lower rank, where u ranks below w iff (deg u, u) < (deg w, w). Built
/// in O(n + m) into n + 1 offsets and m ids. Low-degree endpoints keep the
/// edges, so a hub's row is short or empty however many neighbors it has.
class DegreeOrientation {
 public:
  explicit DegreeOrientation(const Graph& g);

  NodeId num_nodes() const {
    return static_cast<NodeId>(offsets_.size() - 1);
  }

  /// The neighbors of `v` that outrank it, ascending by id.
  std::span<const NodeId> Higher(NodeId v) const {
    MCE_DCHECK_LT(v, num_nodes());
    return {higher_.data() + offsets_[v], higher_.data() + offsets_[v + 1]};
  }

 private:
  std::vector<uint64_t> offsets_;
  std::vector<NodeId> higher_;
};

/// The block builder's row loop: the CSR of the subgraph induced by
/// `members` in the graph `up` orients, the same graph Induce would build.
/// `members` must be sorted and distinct; `local_of` is a dense
/// parent->local map of size up.num_nodes() with local_of[members[i]] == i
/// and kInvalidNode for every other node. Each subgraph edge is found once,
/// in the oriented row of its lower-ranked end, and written into both local
/// rows; a row is then the merge of two ascending halves. Costs
/// O(sum of oriented out-degrees over `members` + subgraph edges), for
/// callers that keep the orientation and map across many calls
/// (decomp/blocks.cc).
Graph InduceOriented(const DegreeOrientation& up,
                     std::span<const NodeId> members,
                     std::span<const NodeId> local_of);

/// Translates a clique (or any node list) from subgraph ids to parent ids.
std::vector<NodeId> ToParentIds(const InducedSubgraph& sub,
                                std::span<const NodeId> nodes);

}  // namespace mce

#endif  // MCE_GRAPH_SUBGRAPH_H_
