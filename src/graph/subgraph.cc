#include "graph/subgraph.h"

#include <algorithm>
#include <numeric>

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

InducedSubgraph Induce(const Graph& g, std::span<const NodeId> nodes) {
  std::vector<NodeId> members(nodes.begin(), nodes.end());
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  MCE_CHECK(members.empty() || members.back() < g.num_nodes());
  // The parent's rows are sorted and the member lookup is monotone on the
  // sorted member list, so filtering each parent row yields the local rows
  // already sorted and symmetric — build the CSR directly and skip
  // GraphBuilder's sort/dedup pass.
  std::vector<uint64_t> offsets(members.size() + 1, 0);
  std::vector<NodeId> adjacency;
  for (size_t u = 0; u < members.size(); ++u) {
    AppendMemberPositions(g.Neighbors(members[u]), members, &adjacency);
    offsets[u + 1] = adjacency.size();
  }
  return InducedSubgraph{
      Graph::FromSortedCsr(std::move(offsets), std::move(adjacency)),
      std::move(members)};
}

DegreeOrientation::DegreeOrientation(const Graph& g)
    : offsets_(g.num_nodes() + 1, 0) {
  higher_.reserve(g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const uint32_t dv = g.Degree(v);
    for (NodeId w : g.Neighbors(v)) {
      const uint32_t dw = g.Degree(w);
      if (dw > dv || (dw == dv && w > v)) higher_.push_back(w);
    }
    offsets_[v + 1] = higher_.size();
  }
}

Graph InduceOriented(const DegreeOrientation& up,
                     std::span<const NodeId> members,
                     std::span<const NodeId> local_of) {
  MCE_CHECK_EQ(local_of.size(), up.num_nodes());
  const size_t k = members.size();
  // Walk: every subgraph edge once, in the oriented row of its lower-ranked
  // end. upper[upper_begin[i], upper_begin[i + 1]) is what member i finds,
  // ascending: oriented rows are in id order and local ids follow parent
  // ids. lower_begin first counts how often each member is found.
  std::vector<NodeId> upper;
  std::vector<uint64_t> upper_begin(k + 1, 0);
  std::vector<uint64_t> lower_begin(k + 1, 0);
  for (size_t i = 0; i < k; ++i) {
    MCE_DCHECK_EQ(local_of[members[i]], i);
    for (NodeId w : up.Higher(members[i])) {
      const NodeId j = local_of[w];
      if (j == kInvalidNode) continue;
      upper.push_back(j);
      ++lower_begin[j + 1];
    }
    upper_begin[i + 1] = upper.size();
  }
  std::partial_sum(lower_begin.begin(), lower_begin.end(),
                   lower_begin.begin());
  // Transpose the finds: walking the finders in local order appends each
  // to the lower half of every member it found, ascending.
  std::vector<NodeId> lower(upper.size());
  std::vector<uint64_t> lower_end(lower_begin.begin(), lower_begin.end() - 1);
  for (size_t i = 0; i < k; ++i) {
    for (uint64_t e = upper_begin[i]; e < upper_begin[i + 1]; ++e) {
      lower[lower_end[upper[e]]++] = static_cast<NodeId>(i);
    }
  }
  // Row i is the merge of its two ascending halves.
  std::vector<uint64_t> offsets(k + 1, 0);
  std::vector<NodeId> adjacency(2 * upper.size());
  for (size_t i = 0; i < k; ++i) {
    const auto row_end = std::merge(
        lower.begin() + lower_begin[i], lower.begin() + lower_begin[i + 1],
        upper.begin() + upper_begin[i], upper.begin() + upper_begin[i + 1],
        adjacency.begin() + offsets[i]);
    offsets[i + 1] = row_end - adjacency.begin();
  }
  return Graph::FromSortedCsr(std::move(offsets), std::move(adjacency));
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
