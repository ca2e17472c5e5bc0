// Clique filtering (Lemma 1 and the `filter` procedure of Algorithm 1).
//
// The hub-side recursion returns cliques that are maximal in the induced
// hub graph G_h but possibly extendable by a feasible node of G. Two
// equivalent filters are provided:
//  * FilterContainedCliques — the literal Lemma 1 statement: drop every
//    clique of C_h contained in some clique of C_f (set containment);
//  * FilterNonMaximal — the graph-based form: keep a clique iff it has no
//    common neighbor in G (i.e. it is maximal in G).
// They agree whenever C_f covers all maximal cliques with a feasible node
// (property-tested in tests/decomp_filter_test.cc); the graph-based filter
// is the production path because it needs no containment joins. The
// executors run it per clique, through a level's MaximalityIndex where
// the level's bitset rows are no larger than the adjacency they summarize
// and through IsMaximalInGraph's sorted-list merges elsewhere.

#ifndef MCE_DECOMP_FILTER_H_
#define MCE_DECOMP_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "mce/clique.h"

namespace mce::decomp {

/// Lemma 1 filter: cliques of `ch` not contained in (or equal to) any
/// clique of `cf`. O(|ch| * candidates) using a per-vertex index over cf.
CliqueSet FilterContainedCliques(const CliqueSet& ch, const CliqueSet& cf);

/// Keeps the cliques of `cliques` that are maximal in `g` (no vertex of g
/// is adjacent to all members). Clique node ids must be g's ids.
CliqueSet FilterNonMaximal(const Graph& g, const CliqueSet& cliques);

/// Predicate form of FilterNonMaximal for one clique.
bool IsMaximalInGraph(const Graph& g, const Clique& clique);

/// IsMaximalInGraph as bitset rows, for the cliques of one recursion level
/// (DESIGN.md §6): one row over g's n nodes, N_g(u) as bits, per original
/// id u the level's cliques can contain. A check ANDs its members' rows
/// word by word and stops at the first nonzero word, where the list form
/// merges sorted neighbor lists member by member.
class MaximalityIndex {
 public:
  /// Unbuilt: built() is false and IsMaximal must not be called.
  MaximalityIndex() = default;

  /// Rows for `ids` (original ids of g, any order, no duplicates), built
  /// only when they take no more bytes than the adjacency they summarize,
  /// |ids| * ceil(n/64) * 8 <= 4 * sum of deg_g(u) over ids, so the index
  /// never outgrows g. Otherwise the index is returned unbuilt.
  static MaximalityIndex Build(const Graph& g, std::vector<NodeId> ids);

  bool built() const { return !rows_.empty(); }

  /// Heap bytes held: the rows and the sorted ids.
  uint64_t Bytes() const {
    return rows_.size() * sizeof(uint64_t) + ids_.size() * sizeof(NodeId);
  }

  /// IsMaximalInGraph(g, clique) for the g the index was built over: true
  /// iff no node of g is adjacent to every member. Every member must be
  /// one of the index's ids.
  bool IsMaximal(std::span<const NodeId> clique) const;

 private:
  /// The row of `u`, found by binary search over ids_.
  const uint64_t* Row(NodeId u) const;

  size_t words_ = 0;          // per row: ceil(n / 64)
  std::vector<NodeId> ids_;   // ascending; ids_[r] owns row r
  std::vector<uint64_t> rows_;
};

}  // namespace mce::decomp

#endif  // MCE_DECOMP_FILTER_H_
