// Mutable edge accumulator that produces an immutable CSR Graph.

#ifndef MCE_GRAPH_BUILDER_H_
#define MCE_GRAPH_BUILDER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace mce {

/// Collects edges (self-loops and duplicates are tolerated and removed at
/// Build time) and finalizes them into a Graph. The node count grows to
/// cover the largest endpoint seen, and can be raised explicitly to include
/// isolated nodes.
class GraphBuilder {
 public:
  GraphBuilder() = default;
  explicit GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

  /// Ensures the graph has at least `n` nodes (ids [0, n) all exist).
  void ReserveNodes(NodeId n) {
    if (n > num_nodes_) num_nodes_ = n;
  }

  void ReserveEdges(size_t m) { edges_.reserve(m); }

  /// Records an undirected edge {u, v}. Self-loops are dropped silently
  /// (cliques are defined on simple graphs); duplicates are deduplicated
  /// at Build time. Neither endpoint may be kInvalidNode (checked).
  void AddEdge(NodeId u, NodeId v);

  /// True if {u, v} was added before. O(edges) — intended for generators
  /// that need occasional membership tests on small graphs; use Graph
  /// after Build for fast queries.
  bool HasEdgeSlow(NodeId u, NodeId v) const;

  NodeId num_nodes() const { return num_nodes_; }
  size_t num_recorded_edges() const { return edges_.size(); }

  /// Deduplicates and builds the CSR graph through a counting sort by
  /// smaller endpoint, in O(n + m + sorting each node's larger
  /// neighbors). The builder is left empty and reusable.
  Graph Build();

 private:
  NodeId num_nodes_ = 0;
  std::vector<std::pair<NodeId, NodeId>> edges_;  // normalized: first < second
};

}  // namespace mce

#endif  // MCE_GRAPH_BUILDER_H_
