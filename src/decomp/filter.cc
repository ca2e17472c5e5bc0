#include "decomp/filter.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "util/bitset.h"

namespace mce::decomp {

CliqueSet FilterContainedCliques(const CliqueSet& ch, const CliqueSet& cf) {
  // Index cf cliques by member vertex so each ch clique is only compared
  // against cliques sharing its first vertex.
  std::unordered_map<NodeId, std::vector<size_t>> by_vertex;
  NodeId max_id = 0;
  for (size_t i = 0; i < cf.size(); ++i) {
    for (NodeId v : cf.cliques()[i]) {
      by_vertex[v].push_back(i);
      max_id = std::max(max_id, v);
    }
  }
  for (const Clique& c : ch.cliques()) {
    for (NodeId v : c) max_id = std::max(max_id, v);
  }
  const size_t universe = static_cast<size_t>(max_id) + 1;

  // Each surviving comparison is a word-level Bitset::IsSubsetOf instead
  // of a per-element merge walk: the cf cliques are materialized as
  // bitsets once, and one grow-only scratch bitset holds the current ch
  // clique.
  std::vector<Bitset> cf_bits(cf.size());
  for (size_t i = 0; i < cf.size(); ++i) {
    cf_bits[i].Reinit(universe);
    for (NodeId v : cf.cliques()[i]) cf_bits[i].Set(v);
  }

  CliqueSet out;
  Bitset scratch;
  for (const Clique& c : ch.cliques()) {
    bool contained = false;
    if (!c.empty()) {
      auto it = by_vertex.find(c.front());
      if (it != by_vertex.end()) {
        scratch.Reinit(universe);
        for (NodeId v : c) scratch.Set(v);
        for (size_t candidate : it->second) {
          if (cf.cliques()[candidate].size() >= c.size() &&
              scratch.IsSubsetOf(cf_bits[candidate])) {
            contained = true;
            break;
          }
        }
      }
    }
    if (!contained) out.Add(c);
  }
  return out;
}

bool IsMaximalInGraph(const Graph& g, const Clique& clique) {
  if (clique.empty()) return g.num_nodes() == 0;
  return CommonNeighbors(g, clique).empty();
}

CliqueSet FilterNonMaximal(const Graph& g, const CliqueSet& cliques) {
  CliqueSet out;
  for (const Clique& c : cliques.cliques()) {
    if (IsMaximalInGraph(g, c)) out.Add(c);
  }
  return out;
}

}  // namespace mce::decomp
