#include "graph/builder.h"

#include <algorithm>

namespace mce {

void GraphBuilder::AddEdge(NodeId u, NodeId v) {
  // kInvalidNode is no node id: the node count v + 1 must not wrap to 0.
  MCE_CHECK_NE(u, kInvalidNode);
  MCE_CHECK_NE(v, kInvalidNode);
  if (u == v) return;
  if (u > v) std::swap(u, v);
  ReserveNodes(v + 1);
  edges_.emplace_back(u, v);
}

bool GraphBuilder::HasEdgeSlow(NodeId u, NodeId v) const {
  if (u > v) std::swap(u, v);
  auto key = std::make_pair(u, v);
  return std::find(edges_.begin(), edges_.end(), key) != edges_.end();
}

Graph GraphBuilder::Build() {
  // Every size in 64 bits: n + 1 offsets must not wrap when n nears 2^32.
  const uint64_t n = num_nodes_;

  // Counting sort by smaller endpoint: bucket u collects the larger
  // endpoints of u's edges. `bucket` starts as each bucket's first slot;
  // filling advances it, so afterwards bucket[u] is where bucket u ends.
  std::vector<uint64_t> bucket(n + 1, 0);
  for (const auto& [u, v] : edges_) ++bucket[u + 1];
  for (uint64_t i = 1; i <= n; ++i) bucket[i] += bucket[i - 1];
  std::vector<NodeId> upper(edges_.size());
  for (const auto& [u, v] : edges_) upper[bucket[u]++] = v;
  std::vector<std::pair<NodeId, NodeId>>().swap(edges_);

  // Sort and deduplicate each bucket, compacting the buckets to the front
  // of `upper` (bucket[u] becomes the start again), and count degrees.
  std::vector<uint64_t> offsets(n + 1, 0);
  uint64_t begin = 0;
  uint64_t kept = 0;
  for (uint64_t u = 0; u < n; ++u) {
    NodeId* const first = upper.data() + begin;
    NodeId* last = upper.data() + bucket[u];
    begin = bucket[u];
    std::sort(first, last);
    last = std::unique(first, last);
    bucket[u] = kept;
    offsets[u + 1] += static_cast<uint64_t>(last - first);
    for (const NodeId* p = first; p != last; ++p) {
      ++offsets[*p + 1];
      upper[kept++] = *p;
    }
  }
  bucket[n] = kept;
  for (uint64_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];

  // Scatter the buckets in increasing u. Row x first receives its smaller
  // neighbors from the buckets below x, in increasing order, then bucket x
  // itself, sorted and all above x; no later bucket holds x. So every row
  // comes out sorted, with no per-row sort.
  std::vector<NodeId> adjacency(offsets[n]);
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (uint64_t u = 0; u < n; ++u) {
    for (uint64_t i = bucket[u]; i < bucket[u + 1]; ++i) {
      const NodeId v = upper[i];
      adjacency[cursor[u]++] = v;
      adjacency[cursor[v]++] = static_cast<NodeId>(u);
    }
  }

  num_nodes_ = 0;
  return Graph(std::move(offsets), std::move(adjacency));
}

}  // namespace mce
