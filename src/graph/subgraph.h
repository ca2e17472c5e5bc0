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
/// far longer). Nothing is sized by the parent's node count, so a call on
/// a small set stays cheap on a large graph.
InducedSubgraph Induce(const Graph& g, std::span<const NodeId> nodes);

/// The row-filtering loop behind Induce and the block builder: the CSR of
/// the subgraph of `g` induced by `members`, which must be sorted, distinct
/// and smaller than g.num_nodes(). Row i lists, ascending, the positions in
/// `members` of N(members[i]) ∩ members. `local_of` picks the member
/// lookup:
///  - empty: each parent row is intersected with `members` as in Induce;
///  - otherwise a dense parent→local map of size g.num_nodes() with
///    local_of[members[i]] == i and kInvalidNode for every other node,
///    probed once per neighbor — O(sum of member degrees), for callers
///    that keep such a map across many calls (decomp/blocks.cc).
Graph InduceRows(const Graph& g, std::span<const NodeId> members,
                 std::span<const NodeId> local_of = {});

/// Translates a clique (or any node list) from subgraph ids to parent ids.
std::vector<NodeId> ToParentIds(const InducedSubgraph& sub,
                                std::span<const NodeId> nodes);

}  // namespace mce

#endif  // MCE_GRAPH_SUBGRAPH_H_
