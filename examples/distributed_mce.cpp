// Distributed enumeration on the simulated cluster: runs the full
// two-level pipeline with the block-analysis phase placed on a 10-worker
// cluster (the paper's testbed size), then prints per-level makespans,
// speedup, load skew, and communication volume for both partitioning
// strategies.
//
//   $ ./build/examples/distributed_mce [workers] [scale]

#include <cstdio>
#include <cstdlib>
#include <span>

#include "exec/cluster_executor.h"
#include "exec/executor.h"
#include "gen/social.h"

int main(int argc, char** argv) {
  const int workers = argc > 1 ? std::atoi(argv[1]) : 10;
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.1;

  mce::Graph graph =
      mce::gen::GenerateSocialNetwork(mce::gen::GooglePlusConfig(scale));
  std::printf("graph: %u nodes, %llu edges; cluster: %d workers\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()), workers);

  for (mce::dist::PartitionStrategy strategy :
       {mce::dist::PartitionStrategy::kGreedyLpt,
        mce::dist::PartitionStrategy::kHash}) {
    mce::decomp::FindMaxCliquesOptions options;
    options.max_block_size = graph.MaxDegree() / 2;  // m/d = 0.5
    mce::dist::ClusterConfig cluster;
    cluster.num_workers = workers;
    cluster.strategy = strategy;
    mce::exec::SimulatedClusterExecutor executor(
        cluster, mce::exec::MakeExecutor(options));
    const mce::decomp::StreamingStats stats = executor.Run(
        graph, options, [](std::span<const mce::NodeId>, uint32_t) {});

    std::printf("\nstrategy: %s\n", ToString(strategy));
    std::printf("  cliques: %llu (identical for every strategy)\n",
                static_cast<unsigned long long>(stats.cliques_emitted));
    for (size_t l = 0; l < executor.levels().size(); ++l) {
      const auto& level = executor.levels()[l];
      std::printf(
          "  level %zu: decompose %.4fs, analysis makespan %.4fs, "
          "skew %.2f\n",
          l, level.decompose_seconds, level.simulation.makespan_seconds,
          level.simulation.Skew());
    }
    const mce::exec::ClusterSummary summary = executor.Summary();
    std::printf("  total %.4fs, analysis speedup %.2fx, %llu bytes shipped\n",
                summary.makespan_seconds, summary.analysis_speedup,
                static_cast<unsigned long long>(summary.bytes_shipped));
  }
  return 0;
}
