#include "graph/graph.h"

#include <algorithm>

namespace mce {

Graph Graph::FromSortedCsr(std::vector<uint64_t> offsets,
                           std::vector<NodeId> adjacency) {
  MCE_DCHECK(!offsets.empty());
  MCE_DCHECK_EQ(offsets.front(), 0u);
  MCE_DCHECK_EQ(offsets.back(), adjacency.size());
#ifndef NDEBUG
  const size_t n = offsets.size() - 1;
  for (size_t v = 0; v < n; ++v) {
    MCE_DCHECK_LE(offsets[v], offsets[v + 1]);
    for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      MCE_DCHECK_LT(adjacency[i], n);
      MCE_DCHECK_NE(adjacency[i], static_cast<NodeId>(v));
      if (i > offsets[v]) MCE_DCHECK_LT(adjacency[i - 1], adjacency[i]);
    }
  }
  // Symmetric: every row is sorted by now, so each reverse edge is a
  // binary search.
  for (size_t v = 0; v < n; ++v) {
    for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const NodeId u = adjacency[i];
      MCE_DCHECK(std::binary_search(adjacency.begin() + offsets[u],
                                    adjacency.begin() + offsets[u + 1],
                                    static_cast<NodeId>(v)));
    }
  }
#endif
  return Graph(std::move(offsets), std::move(adjacency));
}

Graph Graph::FromStorage(std::shared_ptr<const GraphStorage> storage) {
  MCE_CHECK(storage != nullptr);
  MCE_CHECK(!storage->offsets().empty());
  MCE_CHECK_EQ(storage->offsets().front(), 0u);
  MCE_CHECK_EQ(storage->offsets().back(), storage->adjacency().size());
  return Graph(std::move(storage));
}

bool Graph::operator==(const Graph& other) const {
  return std::equal(offsets_.begin(), offsets_.end(), other.offsets_.begin(),
                    other.offsets_.end()) &&
         std::equal(adjacency_.begin(), adjacency_.end(),
                    other.adjacency_.begin(), other.adjacency_.end());
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  MCE_DCHECK_LT(u, num_nodes());
  MCE_DCHECK_LT(v, num_nodes());
  if (Degree(u) > Degree(v)) std::swap(u, v);
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

uint32_t Graph::MaxDegree() const {
  uint32_t best = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) best = std::max(best, Degree(v));
  return best;
}

double Graph::Density() const {
  const uint64_t n = num_nodes();
  if (n < 2) return 0.0;
  return (2.0 * static_cast<double>(num_edges())) /
         (static_cast<double>(n) * static_cast<double>(n - 1));
}

}  // namespace mce
