// Graph-reduction prepass (Deng et al. 2023-style reduction rules adapted
// to the exact-MCE pipeline).
//
// ReduceGraph strips vertices whose maximal cliques are trivially known
// before CUT/BLOCKS ever run, emitting those cliques directly and handing
// the pipeline a smaller graph R plus a ReductionMap that re-expands R's
// cliques to original ids. Three rule families, iterated to a fixed point:
//
//  * Simplicial elimination (subsumes degree-0 and degree-1): remove a
//    vertex u whose current neighborhood N_R(u) is a clique. N_R[u] is
//    then the unique maximal clique of R containing u, and its expansion
//    E_u is a clique of the original graph G (class members are pairwise
//    adjacent and adjacency between classes is all-or-nothing). E_u is
//    emitted iff it is not contained in a previously emitted trivial
//    clique — exactly the maximal ones survive: an extension vertex x of
//    E_u would have its class representative either still alive (then it
//    sits in N_R(u), so x ∈ E_u — contradiction) or removed earlier (then
//    by induction E_u ∪ {x} lies inside an earlier emitted clique, so E_u
//    was covered and suppressed). Degree-0/1 are the d=0/1 cases; general
//    dominated-vertex *deletion* is unsound for exact MCE (it loses or
//    leaks cliques — see DESIGN.md §10), so domination folds only through
//    this simplicial form, with the fold degree capped to bound the
//    pairwise adjacency check.
//  * True-twin compression: vertices with identical closed neighborhoods
//    N_R[u] = N_R[v] are merged into a super-vertex; every maximal clique
//    contains either both or neither, so enumeration runs once on the
//    representative and re-expands through the vertex class. Classes
//    compose across rounds (a super-vertex can later be merged again or
//    eliminated as simplicial).
//  * Re-expansion leak check: a maximal clique C of the final R whose
//    expansion is contained in an emitted trivial clique is non-maximal
//    in G (possible once simplicial removals with degree >= 2 happened)
//    and is dropped by ReductionMap::ExpandClique. With only
//    degree-0/1/twin eliminations no leak can exist, and the check
//    short-circuits on the covered-vertex counts.
//
// Everything mutable during the fixed-point loop draws from a reusable
// ReduceWorkspace (grow-only, like mce::BlockWorkspace), so repeated runs
// are allocation-free at steady state apart from the result arrays.

#ifndef MCE_REDUCE_REDUCTION_H_
#define MCE_REDUCE_REDUCTION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "mce/clique.h"

namespace mce::reduce {

struct ReduceOptions {
  /// Maximum current degree at which the simplicial (dominated-fold) rule
  /// is attempted; the clique test costs O(d^2 log deg). Degree-0/1
  /// elimination is always on. Must be >= 1.
  uint32_t max_fold_degree = 8;
  /// Fixed-point round cap; 0 = iterate until no rule fires.
  uint32_t max_rounds = 0;
};

/// Per-rule telemetry of one reduction run (run result / reduce.* metrics /
/// --json).
struct ReductionStats {
  bool enabled = false;
  /// Vertices removed by rule: degree-0, degree-1, simplicial fold with
  /// degree >= 2, and twin merges (the merged vertex disappears).
  uint64_t isolated_removed = 0;
  uint64_t degree1_removed = 0;
  uint64_t dominated_removed = 0;
  uint64_t twins_merged = 0;
  uint64_t vertices_removed = 0;  // sum of the four above
  uint64_t edges_removed = 0;
  /// Maximal cliques emitted directly by the prepass.
  uint64_t trivial_cliques = 0;
  /// Elimination candidates suppressed because a previously emitted
  /// trivial clique contained them (they were not maximal in G).
  uint64_t suppressed_cliques = 0;
  /// Fixed-point rounds that fired at least one rule.
  uint32_t rounds = 0;
  double seconds = 0;
};

/// Maps the reduced graph R back to the original graph G: per-vertex
/// expansion classes (twin members, sorted original ids) plus the emitted
/// trivial cliques and their cover index. Immutable after ReduceGraph
/// returns; safe to share across threads.
class ReductionMap {
 public:
  /// False for a default-constructed map (no reduction ran); expansion is
  /// then the identity and no cover check is needed.
  bool active() const { return active_; }

  /// Original-id members of reduced vertex `r`, sorted.
  std::span<const NodeId> ClassOf(NodeId r) const {
    const size_t begin = r == 0 ? 0 : class_ends_[r - 1];
    return {class_ids_.data() + begin, class_ends_[r] - begin};
  }

  /// Expands a clique of R (any order) to sorted original ids in *out.
  /// Returns false when the expansion is contained in an emitted trivial
  /// clique — the clique is not maximal in G and must be dropped.
  bool ExpandClique(std::span<const NodeId> reduced, Clique* out) const;

  size_t num_trivial_cliques() const { return trivial_ends_.size(); }
  /// The i-th emitted trivial clique (sorted original ids), in emission
  /// order — the order executors deliver them in.
  std::span<const NodeId> TrivialClique(size_t i) const {
    const size_t begin = i == 0 ? 0 : trivial_ends_[i - 1];
    return {trivial_ids_.data() + begin, trivial_ends_[i] - begin};
  }

 private:
  friend class Reducer;

  /// True iff the sorted original-id clique `c` is a subset of some
  /// emitted trivial clique.
  bool Covered(std::span<const NodeId> c) const;

  bool active_ = false;
  // Flat per-vertex class arena over R's ids.
  std::vector<NodeId> class_ids_;
  std::vector<size_t> class_ends_;
  // Flat trivial-clique arena (original ids, each sorted).
  std::vector<NodeId> trivial_ids_;
  std::vector<size_t> trivial_ends_;
  // Cover index: cover_count_[v] != 0 iff original vertex v appears in
  // some trivial clique (saturating count, doubles as the "pick the
  // rarest member" heuristic). The cliques containing v form a chain in
  // cover_pool_ — (trivial index, next entry) — headed by cover_head_[v];
  // one flat pool instead of per-vertex vectors keeps emission
  // allocation-light.
  static constexpr uint32_t kNoCoverEntry = 0xffffffffu;
  std::vector<uint8_t> cover_count_;
  std::vector<uint32_t> cover_head_;
  std::vector<std::pair<uint32_t, uint32_t>> cover_pool_;
};

/// Grow-only scratch for ReduceGraph: the mutable adjacency copy, the
/// worklist, liveness flags, and twin-hash buffers. Reusing one workspace
/// across runs eliminates steady-state allocations of the fixed-point
/// loop.
class ReduceWorkspace {
 public:
  ReduceWorkspace() = default;
  ReduceWorkspace(const ReduceWorkspace&) = delete;
  ReduceWorkspace& operator=(const ReduceWorkspace&) = delete;

 private:
  friend class Reducer;
  // Mutable flat-CSR adjacency: vertex v's current neighbors are
  // lists[row_begin[v], row_begin[v] + deg[v]) (unsorted; removal swaps
  // with the last active entry). mirror[p] is the position of the reverse
  // arc of lists[p], maintained through swaps, so deleting a vertex costs
  // O(deg) instead of rescanning every neighbor's row. One O(m) copy per
  // run, no per-vertex vectors.
  std::vector<uint32_t> row_begin;
  std::vector<NodeId> lists;
  std::vector<uint32_t> mirror;
  std::vector<uint32_t> deg;
  std::vector<uint32_t> cursor;           // mirror-construction scratch
  std::vector<uint8_t> alive;
  std::vector<uint8_t> queued;
  std::vector<NodeId> queue;
  std::vector<NodeId> candidates;         // pre-scan seed vertices
  std::vector<std::vector<NodeId>> cls;   // extra class members (empty =
                                          // singleton), original ids
  std::vector<std::pair<uint64_t, NodeId>> twin_keys;  // (hash, vertex)
  std::vector<uint64_t> twin_hash;  // pre-scan per-vertex twin signatures
  std::vector<NodeId> scratch;            // candidate/closed-neighborhood
  std::vector<NodeId> merge_scratch;
};

struct ReductionResult {
  /// True when no rule fired anywhere: the pre-scan proved the input is
  /// already irreducible, `graph` is default-constructed (empty), and
  /// `map` is inactive — callers keep using the input graph directly.
  /// This is the fast path that makes the prepass near-free on graphs
  /// with nothing to strip (no adjacency copy, no rebuild).
  bool unchanged = false;
  /// The reduced graph R the pipeline decomposes (empty when unchanged).
  Graph graph;
  ReductionMap map;
  ReductionStats stats;
};

/// Runs the reduction rules on `g` to a fixed point. `workspace` may be
/// null (a local one is used). The result graph's vertex r corresponds to
/// the original vertices map.ClassOf(r); the trivial cliques plus the
/// expansions of R's maximal cliques that survive ExpandClique are exactly
/// the maximal cliques of `g`, each produced once.
ReductionResult ReduceGraph(const Graph& g, const ReduceOptions& options,
                            ReduceWorkspace* workspace = nullptr);

}  // namespace mce::reduce

#endif  // MCE_REDUCE_REDUCTION_H_
