// Figure 11: among the 200 largest maximal cliques of each dataset, the
// percentage computed from the feasible nodes vs from the hub nodes, per
// m/d ratio.
//
// Paper shape: the hub share grows sharply around m/d = 0.5; for
// m/d in [0.1, 0.5] it lies between 20% and 80% on all datasets — i.e.,
// ignoring hubs would lose a large fraction of the most significant
// cliques.

#include <cstdio>

#include "common.h"
#include "core/run_stats.h"

int main() {
  using namespace mce;
  using namespace mce::bench;

  PrintTitle("Figure 11: hub share among the 200 largest maximal cliques");
  std::printf("%-10s", "dataset");
  for (double ratio : Ratios()) std::printf("   m/d=%.1f", ratio);
  std::printf("\n");
  PrintRule();
  for (const NamedGraph& d : Datasets()) {
    std::printf("%-10s", d.name.c_str());
    for (double ratio : Ratios()) {
      const double share =
          HubShareOfLargestCliques(RunPipeline(d.graph, ratio), 200);
      std::printf("   %6.1f%%", 100.0 * share);
    }
    std::printf("\n");
  }
  PrintRule();
  std::printf("paper shape: hub share grows around m/d=0.5 and reaches\n"
              "20-80%% for m/d in [0.1, 0.5].\n");
  return 0;
}
