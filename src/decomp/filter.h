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
// is the production path because it needs no containment joins.

#ifndef MCE_DECOMP_FILTER_H_
#define MCE_DECOMP_FILTER_H_

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

}  // namespace mce::decomp

#endif  // MCE_DECOMP_FILTER_H_
