// Clique value types, collection, and maximality predicates.

#ifndef MCE_MCE_CLIQUE_H_
#define MCE_MCE_CLIQUE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace mce {

/// A clique as a sorted vector of node ids.
using Clique = std::vector<NodeId>;

/// Enumeration callback. The span is only valid during the call; copy it if
/// you keep it. Vertices arrive unsorted.
using CliqueCallback = std::function<void(std::span<const NodeId>)>;

/// Canonical collection of cliques: each stored sorted; the collection can
/// be canonicalized (lexicographically sorted + deduplicated) for
/// set-comparison in tests and for the Lemma 1 filter.
class CliqueSet {
 public:
  CliqueSet() = default;

  /// Copies and sorts the clique.
  void Add(std::span<const NodeId> clique);
  void Add(Clique clique);

  /// Moves all cliques out of `other` into this set.
  void Merge(CliqueSet&& other);

  /// Sorts the collection lexicographically and removes duplicates. An
  /// already sorted collection (every batch result) skips the sort.
  void Canonicalize();

  size_t size() const { return cliques_.size(); }
  bool empty() const { return cliques_.empty(); }
  const std::vector<Clique>& cliques() const { return cliques_; }
  std::vector<Clique>& mutable_cliques() { return cliques_; }

  /// Size of the largest clique (0 when empty).
  size_t MaxCliqueSize() const;
  /// Mean clique size (0 when empty).
  double AverageCliqueSize() const;

  /// Returns a callback that Add()s into this set.
  CliqueCallback Collector();

  /// Canonical equality (both sides are canonicalized by the call).
  static bool Equal(CliqueSet& a, CliqueSet& b);

 private:
  std::vector<Clique> cliques_;
};

/// True iff `nodes` (distinct ids) induce a complete subgraph of `g`.
bool IsClique(const Graph& g, std::span<const NodeId> nodes);

/// True iff `nodes` is a clique and no vertex of `g` is adjacent to all of
/// them. The empty set is maximal only in the empty graph.
bool IsMaximalClique(const Graph& g, std::span<const NodeId> nodes);

/// Nodes adjacent to every node in `nodes` (excluding members themselves):
/// the common-neighborhood intersection used by the maximality test and the
/// Lemma 1 extension filter. `nodes` must be non-empty.
std::vector<NodeId> CommonNeighbors(const Graph& g,
                                    std::span<const NodeId> nodes);

}  // namespace mce

#endif  // MCE_MCE_CLIQUE_H_
