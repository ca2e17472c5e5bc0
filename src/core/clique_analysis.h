// Post-enumeration analysis helpers over a clique collection: size
// histograms, top-k selection, and per-node participation — the summary
// quantities a community-detection consumer reads off the result (and the
// ones the evaluation's figures aggregate).

#ifndef MCE_CORE_CLIQUE_ANALYSIS_H_
#define MCE_CORE_CLIQUE_ANALYSIS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "mce/clique.h"

namespace mce {

/// histogram[s] = number of cliques with exactly s members (index 0 unused
/// unless empty cliques are present).
std::vector<uint64_t> CliqueSizeHistogram(const CliqueSet& cliques);

/// Indices of the `k` largest cliques, largest first; ties broken by
/// lexicographic clique content, then by index, so the result is the
/// first `k` of a full sort. Returns fewer when the collection is
/// smaller. Costs O(n log k): a partial sort, not a full one.
std::vector<size_t> LargestCliqueIndices(const CliqueSet& cliques, size_t k);

/// counts[v] = number of cliques containing node v. `num_nodes` sizes the
/// result; clique members must be < num_nodes.
std::vector<uint64_t> PerNodeCliqueCounts(const CliqueSet& cliques,
                                          NodeId num_nodes);

/// Nodes sorted by descending clique participation (count, then id): the
/// "most social" vertices. Returns the top `k`.
std::vector<NodeId> TopParticipants(const CliqueSet& cliques,
                                    NodeId num_nodes, size_t k);

}  // namespace mce

#endif  // MCE_CORE_CLIQUE_ANALYSIS_H_
