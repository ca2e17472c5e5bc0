// Quickstart: build a small graph, enumerate its maximal cliques with the
// full two-level pipeline, and inspect the statistics.
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "core/max_clique_finder.h"
#include "graph/builder.h"

int main() {
  // A little social circle: a triangle of friends {0,1,2}, a foursome
  // {2,3,4,5}, and a popular account 6 followed by everyone.
  mce::GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  builder.AddEdge(2, 4);
  builder.AddEdge(2, 5);
  builder.AddEdge(3, 4);
  builder.AddEdge(3, 5);
  builder.AddEdge(4, 5);
  for (mce::NodeId v = 0; v < 6; ++v) builder.AddEdge(6, v);
  mce::Graph graph = builder.Build();

  // Configure the finder: blocks of at most 5 nodes, so node 6 (degree 6)
  // and node 2 (degree 6) become hubs and go through the recursion.
  mce::MaxCliqueFinder::Options options;
  options.max_block_size = 5;
  mce::MaxCliqueFinder finder(options);

  mce::Result<mce::FindResult> result = finder.Find(graph);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("graph: %u nodes, %llu edges\n", graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()));
  std::printf("block bound m = %u\n", result->effective_block_size);
  std::printf("maximal cliques (%zu):\n", result->cliques.size());
  for (size_t i = 0; i < result->cliques.size(); ++i) {
    std::printf("  {");
    const mce::Clique& c = result->cliques.cliques()[i];
    for (size_t j = 0; j < c.size(); ++j) {
      std::printf("%s%u", j ? ", " : "", c[j]);
    }
    std::printf("}%s\n",
                result->origin_level[i] >= 1 ? "   <- hub-only clique" : "");
  }
  std::printf("stats: %s\n",
              mce::RunSummaryLine(result->stats, *result).c_str());
  return 0;
}
