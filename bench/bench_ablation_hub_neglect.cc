// Ablation: what is lost if hub nodes are neglected?
//
// This quantifies the paper's motivating claim (Sections 1 and 6.3): a
// decomposition that only processes feasible-node blocks — i.e., drops the
// hub recursion of FIND-MAX-CLIQUES — silently loses every maximal clique
// made of hub nodes only, and those are among the largest in the network.

#include <cstdio>

#include "baseline/truncated_mce.h"
#include "common.h"
#include "core/run_stats.h"

int main() {
  using namespace mce;
  using namespace mce::bench;

  PrintTitle("Ablation: cliques lost when hub nodes are neglected");
  std::printf("%-10s %5s %10s %10s %8s %10s %12s\n", "dataset", "m/d",
              "#cliques", "#lost", "lost%", "maxlost", "top200 lost");
  PrintRule();
  for (const NamedGraph& d : Datasets()) {
    for (double ratio : {0.9, 0.5, 0.1}) {
      FindResult result = RunPipeline(d.graph, ratio);
      // Lost = everything that originated from recursion levels >= 1.
      uint64_t lost = result.stats.hub_cliques;
      size_t max_lost = 0;
      for (size_t i = 0; i < result.cliques.size(); ++i) {
        if (result.origin_level[i] >= 1) {
          max_lost =
              std::max(max_lost, result.cliques.cliques()[i].size());
        }
      }
      const double top_share = HubShareOfLargestCliques(result, 200);
      std::printf("%-10s %5.1f %10llu %10llu %7.2f%% %10zu %11.1f%%\n",
                  d.name.c_str(), ratio,
                  static_cast<unsigned long long>(result.stats.total_cliques),
                  static_cast<unsigned long long>(lost),
                  result.stats.total_cliques > 0
                      ? 100.0 * lost / result.stats.total_cliques
                      : 0.0,
                  max_lost, 100.0 * top_share);
    }
    PrintRule();
  }
  std::printf("reading: 'lost' cliques are hub-only; without the two-level\n"
              "decomposition they would be missed entirely, and they account\n"
              "for a large slice of the 200 biggest cliques at small m/d.\n");

  // Part 2: the EmMCE-style baseline that truncates hub neighborhoods
  // instead of recursing (Sections 1, 7). It both misses maximal cliques
  // and reports non-maximal ones.
  PrintTitle("Baseline: truncated single-level decomposition (EmMCE-style)");
  std::printf("%-10s %5s %10s %10s %10s %10s %10s\n", "dataset", "m/d",
              "truth", "correct", "missed", "erroneous", "truncated");
  PrintRule();
  for (const NamedGraph& d : Datasets()) {
    if (d.name != "twitter1" && d.name != "google+") continue;
    for (double ratio : {0.5, 0.1}) {
      const uint32_t m = std::max<uint32_t>(
          2, static_cast<uint32_t>(ratio * d.graph.MaxDegree()));
      baseline::TruncatedMceOptions options;
      options.max_block_size = m;
      baseline::TruncatedMceResult base =
          baseline::TruncatedBlockMce(d.graph, options);
      FindResult exact = RunPipeline(d.graph, ratio);
      baseline::BaselineComparison cmp =
          baseline::CompareWithTruth(d.graph, base.cliques, exact.cliques);
      std::printf("%-10s %5.1f %10llu %10llu %10llu %10llu %10llu\n",
                  d.name.c_str(), ratio,
                  static_cast<unsigned long long>(exact.cliques.size()),
                  static_cast<unsigned long long>(cmp.correct),
                  static_cast<unsigned long long>(cmp.missed),
                  static_cast<unsigned long long>(cmp.erroneous),
                  static_cast<unsigned long long>(base.truncated_nodes));
    }
  }
  PrintRule();
  std::printf("reading: the truncating baseline is incomplete (missed > 0)\n"
              "and unsound (erroneous > 0) exactly as the paper argues;\n"
              "the two-level pipeline reproduces 'truth' at every ratio.\n");
  return 0;
}
