#include "mce/clique.h"

#include <algorithm>

#include "util/check.h"

namespace mce {

void CliqueSet::Add(std::span<const NodeId> clique) {
  Clique c(clique.begin(), clique.end());
  Add(std::move(c));
}

void CliqueSet::Add(Clique clique) {
  std::sort(clique.begin(), clique.end());
  cliques_.push_back(std::move(clique));
}

void CliqueSet::Merge(CliqueSet&& other) {
  cliques_.insert(cliques_.end(),
                  std::make_move_iterator(other.cliques_.begin()),
                  std::make_move_iterator(other.cliques_.end()));
  other.cliques_.clear();
}

void CliqueSet::Canonicalize() {
  // Batch results arrive sorted; checking is a linear pass.
  if (!std::is_sorted(cliques_.begin(), cliques_.end())) {
    std::sort(cliques_.begin(), cliques_.end());
  }
  cliques_.erase(std::unique(cliques_.begin(), cliques_.end()),
                 cliques_.end());
}

size_t CliqueSet::MaxCliqueSize() const {
  size_t best = 0;
  for (const Clique& c : cliques_) best = std::max(best, c.size());
  return best;
}

double CliqueSet::AverageCliqueSize() const {
  if (cliques_.empty()) return 0.0;
  uint64_t total = 0;
  for (const Clique& c : cliques_) total += c.size();
  return static_cast<double>(total) / static_cast<double>(cliques_.size());
}

CliqueCallback CliqueSet::Collector() {
  return [this](std::span<const NodeId> c) { Add(c); };
}

bool CliqueSet::Equal(CliqueSet& a, CliqueSet& b) {
  a.Canonicalize();
  b.Canonicalize();
  return a.cliques() == b.cliques();
}

bool IsClique(const Graph& g, std::span<const NodeId> nodes) {
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = i + 1; j < nodes.size(); ++j) {
      if (!g.HasEdge(nodes[i], nodes[j])) return false;
    }
  }
  return true;
}

std::vector<NodeId> CommonNeighbors(const Graph& g,
                                    std::span<const NodeId> nodes) {
  MCE_CHECK(!nodes.empty());
  // Start from the smallest neighbor list and intersect the rest into it.
  size_t smallest = 0;
  for (size_t i = 1; i < nodes.size(); ++i) {
    if (g.Degree(nodes[i]) < g.Degree(nodes[smallest])) smallest = i;
  }
  auto seed = g.Neighbors(nodes[smallest]);
  std::vector<NodeId> common(seed.begin(), seed.end());
  std::vector<NodeId> next;
  for (size_t i = 0; i < nodes.size() && !common.empty(); ++i) {
    if (i == smallest) continue;
    auto nbrs = g.Neighbors(nodes[i]);
    next.clear();
    std::set_intersection(common.begin(), common.end(), nbrs.begin(),
                          nbrs.end(), std::back_inserter(next));
    common.swap(next);
  }
  // Drop the clique's own members (a member is never its own neighbor, but
  // it can be a common neighbor of the *other* members).
  std::vector<NodeId> members(nodes.begin(), nodes.end());
  std::sort(members.begin(), members.end());
  std::vector<NodeId> out;
  std::set_difference(common.begin(), common.end(), members.begin(),
                      members.end(), std::back_inserter(out));
  return out;
}

bool IsMaximalClique(const Graph& g, std::span<const NodeId> nodes) {
  if (nodes.empty()) return g.num_nodes() == 0;
  if (!IsClique(g, nodes)) return false;
  return CommonNeighbors(g, nodes).empty();
}

}  // namespace mce
