#include "core/clique_analysis.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace mce {

std::vector<uint64_t> CliqueSizeHistogram(const CliqueSet& cliques) {
  std::vector<uint64_t> histogram(cliques.MaxCliqueSize() + 1, 0);
  for (const Clique& c : cliques.cliques()) ++histogram[c.size()];
  return histogram;
}

std::vector<size_t> LargestCliqueIndices(const CliqueSet& cliques, size_t k) {
  std::vector<size_t> order(cliques.size());
  std::iota(order.begin(), order.end(), 0);
  const size_t take = std::min(k, order.size());
  // The index tie-break makes the order total, so the first `take` are
  // exactly those of a full sort.
  std::partial_sort(order.begin(), order.begin() + take, order.end(),
                    [&cliques](size_t a, size_t b) {
                      const Clique& ca = cliques.cliques()[a];
                      const Clique& cb = cliques.cliques()[b];
                      if (ca.size() != cb.size()) return ca.size() > cb.size();
                      if (const auto c = ca <=> cb; c != 0) return c < 0;
                      return a < b;
                    });
  order.resize(take);
  return order;
}

std::vector<uint64_t> PerNodeCliqueCounts(const CliqueSet& cliques,
                                          NodeId num_nodes) {
  std::vector<uint64_t> counts(num_nodes, 0);
  for (const Clique& c : cliques.cliques()) {
    for (NodeId v : c) {
      MCE_CHECK_LT(v, num_nodes);
      ++counts[v];
    }
  }
  return counts;
}

std::vector<NodeId> TopParticipants(const CliqueSet& cliques,
                                    NodeId num_nodes, size_t k) {
  std::vector<uint64_t> counts = PerNodeCliqueCounts(cliques, num_nodes);
  std::vector<NodeId> order(num_nodes);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&counts](NodeId a, NodeId b) {
    if (counts[a] != counts[b]) return counts[a] > counts[b];
    return a < b;
  });
  order.resize(std::min<size_t>(k, order.size()));
  return order;
}

}  // namespace mce
