#include "graph/subgraph.h"

#include <algorithm>

namespace mce {

namespace {

/// First index i >= lo with a[i] >= x: doubling steps from lo, then a
/// binary search inside the last step. O(log(i - lo + 1)).
size_t GallopTo(std::span<const NodeId> a, size_t lo, NodeId x) {
  size_t hi = lo;
  size_t step = 1;
  while (hi < a.size() && a[hi] < x) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  hi = std::min(hi, a.size());
  return static_cast<size_t>(
      std::lower_bound(a.begin() + lo, a.begin() + hi, x) - a.begin());
}

/// Appends, ascending, the positions j with members[j] in `row`. Lists of
/// comparable length are merged; when one is over 8x longer, the walk runs
/// over the shorter one and gallops through the longer, so a hub row
/// against a small member set costs about |members| · log(deg) probes,
/// not deg.
void AppendMemberPositions(std::span<const NodeId> row,
                           std::span<const NodeId> members,
                           std::vector<NodeId>* out) {
  const size_t a = row.size();
  const size_t b = members.size();
  if (a * 8 < b) {
    size_t j = 0;
    for (NodeId v : row) {
      j = GallopTo(members, j, v);
      if (j == b) return;
      if (members[j] == v) out->push_back(static_cast<NodeId>(j++));
    }
    return;
  }
  if (b * 8 < a) {
    size_t i = 0;
    for (size_t j = 0; j < b; ++j) {
      i = GallopTo(row, i, members[j]);
      if (i == a) return;
      if (row[i] == members[j]) {
        out->push_back(static_cast<NodeId>(j));
        ++i;
      }
    }
    return;
  }
  // Branch-free merge: every step writes the current member position and
  // keeps it only on a match, then advances one or both cursors.
  size_t n = out->size();
  out->resize(n + std::min(a, b));
  NodeId* const dst = out->data();
  size_t i = 0;
  size_t j = 0;
  while (i < a && j < b) {
    const NodeId x = row[i];
    const NodeId y = members[j];
    dst[n] = static_cast<NodeId>(j);
    n += x == y;
    i += x <= y;
    j += y <= x;
  }
  out->resize(n);
}

}  // namespace

Graph InduceRows(const Graph& g, std::span<const NodeId> members,
                 std::span<const NodeId> local_of) {
  MCE_CHECK(members.empty() || members.back() < g.num_nodes());
  MCE_CHECK(local_of.empty() || local_of.size() == g.num_nodes());
  // The parent's rows are sorted and both lookups are monotone on the
  // sorted member list, so filtering each parent row yields the local rows
  // already sorted and symmetric — build the CSR directly and skip
  // GraphBuilder's sort/dedup pass.
  std::vector<uint64_t> offsets(members.size() + 1, 0);
  std::vector<NodeId> adjacency;
  for (size_t u = 0; u < members.size(); ++u) {
    const std::span<const NodeId> row = g.Neighbors(members[u]);
    if (local_of.empty()) {
      AppendMemberPositions(row, members, &adjacency);
    } else {
      for (NodeId v : row) {
        const NodeId local = local_of[v];
        if (local != kInvalidNode) adjacency.push_back(local);
      }
    }
    offsets[u + 1] = adjacency.size();
  }
  return Graph::FromSortedCsr(std::move(offsets), std::move(adjacency));
}

InducedSubgraph Induce(const Graph& g, std::span<const NodeId> nodes) {
  std::vector<NodeId> sorted(nodes.begin(), nodes.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  Graph graph = InduceRows(g, sorted);
  return InducedSubgraph{std::move(graph), std::move(sorted)};
}

std::vector<NodeId> ToParentIds(const InducedSubgraph& sub,
                                std::span<const NodeId> nodes) {
  std::vector<NodeId> out;
  out.reserve(nodes.size());
  for (NodeId v : nodes) {
    MCE_CHECK_LT(v, sub.to_parent.size());
    out.push_back(sub.to_parent[v]);
  }
  return out;
}

}  // namespace mce
