#include "decomp/filter.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/bitset.h"
#include "util/check.h"

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

MaximalityIndex MaximalityIndex::Build(const Graph& g,
                                       std::vector<NodeId> ids) {
  MaximalityIndex index;
  const uint64_t words = (static_cast<uint64_t>(g.num_nodes()) + 63) / 64;
  uint64_t adjacency_bytes = 0;
  for (NodeId u : ids) adjacency_bytes += g.Degree(u) * sizeof(NodeId);
  if (ids.size() * words * sizeof(uint64_t) > adjacency_bytes) return index;
  std::sort(ids.begin(), ids.end());
  MCE_DCHECK(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  index.words_ = words;
  index.rows_.assign(ids.size() * words, 0);
  for (size_t r = 0; r < ids.size(); ++r) {
    uint64_t* row = index.rows_.data() + r * words;
    for (NodeId v : g.Neighbors(ids[r])) {
      row[v >> 6] |= uint64_t{1} << (v & 63);
    }
  }
  index.ids_ = std::move(ids);
  return index;
}

const uint64_t* MaximalityIndex::Row(NodeId u) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), u);
  MCE_DCHECK(it != ids_.end() && *it == u);
  return rows_.data() + static_cast<size_t>(it - ids_.begin()) * words_;
}

bool MaximalityIndex::IsMaximal(std::span<const NodeId> clique) const {
  MCE_DCHECK(built());
  // Rows exist only over a graph with nodes, any of which extends {}.
  if (clique.empty()) return false;
  // The members' rows, inline up to a size few hub-level cliques reach.
  constexpr size_t kInlineMembers = 64;
  const uint64_t* inline_rows[kInlineMembers];
  std::vector<const uint64_t*> long_rows;
  const uint64_t** rows = inline_rows;
  if (clique.size() > kInlineMembers) {
    long_rows.resize(clique.size());
    rows = long_rows.data();
  }
  for (size_t i = 0; i < clique.size(); ++i) rows[i] = Row(clique[i]);
  // A member is never in its own row, so a set bit in the AND is a node
  // outside the clique adjacent to all of it.
  for (size_t w = 0; w < words_; ++w) {
    uint64_t common = rows[0][w];
    for (size_t i = 1; common != 0 && i < clique.size(); ++i) {
      common &= rows[i][w];
    }
    if (common != 0) return false;
  }
  return true;
}

CliqueSet FilterNonMaximal(const Graph& g, const CliqueSet& cliques) {
  CliqueSet out;
  for (const Clique& c : cliques.cliques()) {
    if (IsMaximalInGraph(g, c)) out.Add(c);
  }
  return out;
}

}  // namespace mce::decomp
