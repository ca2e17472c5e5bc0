// Cross-executor contract tests: every engine must produce byte-identical
// emission (cliques, order, observer stream) — DESIGN.md §7.

#include "exec/executor.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "decision/decision_tree.h"
#include "decomp/cut.h"
#include "exec/cluster_executor.h"
#include "exec/task_graph.h"
#include "gen/generators.h"
#include "gen/social.h"
#include "gen/special.h"
#include "graph/builder.h"
#include "graph/subgraph.h"
#include "mce/naive.h"
#include "test_util.h"
#include "util/random.h"

namespace mce::exec {
namespace {

struct Captured {
  std::vector<std::pair<Clique, uint32_t>> emissions;
  std::vector<decomp::BlockTaskRecord> records;
  decomp::StreamingStats stats;
};

Captured RunWith(const Graph& g, decomp::FindMaxCliquesOptions options,
                 decomp::ExecutorKind kind, uint32_t threads) {
  options.executor = kind;
  options.num_threads = threads;
  Captured out;
  options.block_observer = [&out](const decomp::BlockTaskRecord& r) {
    out.records.push_back(r);
  };
  out.stats = decomp::FindMaxCliquesStreaming(
      g, options, [&out](std::span<const NodeId> c, uint32_t level) {
        out.emissions.emplace_back(Clique(c.begin(), c.end()), level);
      });
  return out;
}

void ExpectIdenticalRuns(const Captured& actual, const Captured& expected) {
  // Emission: same cliques, same order, same origin levels — byte-identical.
  EXPECT_EQ(actual.emissions, expected.emissions);
  // Observer stream: same records in the same order (timings aside), in
  // block order within each level and levels in order.
  ASSERT_EQ(actual.records.size(), expected.records.size());
  uint32_t level = 0;
  uint64_t next_index = 0;
  for (size_t i = 0; i < actual.records.size(); ++i) {
    const decomp::BlockTaskRecord& a = actual.records[i];
    const decomp::BlockTaskRecord& e = expected.records[i];
    EXPECT_EQ(a.level, e.level);
    EXPECT_EQ(a.index, e.index);
    EXPECT_EQ(a.nodes, e.nodes);
    EXPECT_EQ(a.edges, e.edges);
    EXPECT_EQ(a.bytes, e.bytes);
    EXPECT_EQ(a.cliques, e.cliques);
    EXPECT_EQ(a.estimated_cost, e.estimated_cost);
    EXPECT_GT(e.estimated_cost, 0.0);
    EXPECT_EQ(a.used.algorithm, e.used.algorithm);
    EXPECT_EQ(a.used.storage, e.used.storage);
    if (e.level != level) {
      EXPECT_EQ(e.level, level + 1);
      level = e.level;
      next_index = 0;
    }
    EXPECT_EQ(e.index, next_index++);
  }
  EXPECT_EQ(actual.stats.used_fallback, expected.stats.used_fallback);
  EXPECT_EQ(actual.stats.cliques_emitted, expected.stats.cliques_emitted);
  ASSERT_EQ(actual.stats.levels.size(), expected.stats.levels.size());
  for (size_t l = 0; l < actual.stats.levels.size(); ++l) {
    EXPECT_EQ(actual.stats.levels[l].blocks, expected.stats.levels[l].blocks);
    EXPECT_EQ(actual.stats.levels[l].cliques, expected.stats.levels[l].cliques);
    EXPECT_EQ(actual.stats.levels[l].feasible,
              expected.stats.levels[l].feasible);
    EXPECT_EQ(actual.stats.levels[l].hubs, expected.stats.levels[l].hubs);
  }
}

std::vector<Graph> Corpus() {
  std::vector<Graph> corpus;
  Rng rng(101);
  corpus.push_back(gen::ErdosRenyiGnp(30, 0.15, &rng));
  corpus.push_back(gen::ErdosRenyiGnp(30, 0.4, &rng));
  corpus.push_back(gen::BarabasiAlbert(50, 3, &rng));
  corpus.push_back(gen::WattsStrogatz(40, 4, 0.2, &rng));
  corpus.push_back(gen::OverlayRandomCliques(gen::ErdosRenyiGnp(40, 0.05, &rng),
                                             4, 4, 7, false, &rng));
  corpus.push_back(mce::test::StarGraph(20));
  corpus.push_back(gen::MoonMoser(3));
  corpus.push_back(gen::Complete(10));
  return corpus;
}

TEST(ExecutorIdentityTest, PooledMatchesSerialAcrossCorpusAndThreads) {
  const std::vector<Graph> corpus = Corpus();
  for (size_t gi = 0; gi < corpus.size(); ++gi) {
    const Graph& g = corpus[gi];
    for (uint32_t m : {3u, 8u, 20u}) {
      decomp::FindMaxCliquesOptions options;
      options.max_block_size = m;
      const Captured serial =
          RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
      for (uint32_t threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(testing::Message() << "graph " << gi << " m " << m
                                        << " threads " << threads);
        ExpectIdenticalRuns(
            RunWith(g, options, decomp::ExecutorKind::kPooled, threads),
            serial);
      }
    }
  }
}

TEST(ExecutorIdentityTest, SocialStandInMatchesAcrossExecutors) {
  const Graph g = gen::GenerateSocialNetwork(gen::FacebookConfig(0.02));
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 40;
  const Captured serial = RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
  EXPECT_GT(serial.stats.cliques_emitted, 0u);
  for (uint32_t threads : {2u, 8u}) {
    ExpectIdenticalRuns(
        RunWith(g, options, decomp::ExecutorKind::kPooled, threads), serial);
  }
}

/// Whether each hub level of `g` at block bound `m` gets its Lemma-1
/// rows, walking the level chain as the executors do (ChildScope right
/// after each Induce), the m-core fallback level included.
std::vector<bool> RowsPerHubLevel(const Graph& g, uint32_t m) {
  std::vector<bool> built;
  LevelScope scope{&g, nullptr, 0, {}, {}};
  Graph level = g;
  for (;;) {
    const decomp::CutResult cut = decomp::Cut(level, m);
    if (cut.feasible.empty() || cut.hubs.empty()) break;
    InducedSubgraph sub = Induce(level, cut.hubs);
    scope = ChildScope(scope, sub.to_parent);
    built.push_back(scope.maximality.built());
    level = std::move(sub.graph);
  }
  return built;
}

// The Lemma-1 rows change no emitted byte, built or declined. facebook
// 0.02 at m 20 builds them on all seven hub levels, the last one the m-core
// fallback; on a sparse-hub BA graph the size rule declines them (hub rows
// of 47 words against hub degrees mostly under 94) and the merge path
// runs. On both, with and without the reduction prepass, serial and
// pooled@1/2/4 emit identically and the clique set is the naive
// reference's.
TEST(ExecutorIdentityTest, LemmaOneRowsMatchNaiveWhetherBuiltOrDeclined) {
  Rng rng(26);
  const Graph facebook = gen::GenerateSocialNetwork(gen::FacebookConfig(0.02));
  const Graph sparse = gen::BarabasiAlbert(3000, 3, &rng);
  EXPECT_EQ(RowsPerHubLevel(facebook, 20), std::vector<bool>(7, true));
  const std::vector<bool> sparse_rows = RowsPerHubLevel(sparse, 10);
  ASSERT_FALSE(sparse_rows.empty());
  EXPECT_FALSE(sparse_rows[0]);
  for (const auto& [g, m] :
       {std::pair{&facebook, 20u}, std::pair{&sparse, 10u}}) {
    SCOPED_TRACE(testing::Message() << "n " << g->num_nodes());
    CliqueSet want = NaiveMceSet(*g);
    for (bool reduce : {false, true}) {
      SCOPED_TRACE(testing::Message() << "reduce " << reduce);
      decomp::FindMaxCliquesOptions options;
      options.max_block_size = m;
      options.reduce = reduce;
      const Captured serial =
          RunWith(*g, options, decomp::ExecutorKind::kSerial, 1);
      CliqueSet got;
      uint64_t hub_cliques = 0;
      for (const auto& [clique, level] : serial.emissions) {
        got.Add(clique);
        hub_cliques += level > 0 ? 1 : 0;
      }
      EXPECT_GT(hub_cliques, 0u);
      mce::test::ExpectSameCliques(got, want);
      for (uint32_t threads : {1u, 2u, 4u}) {
        ExpectIdenticalRuns(
            RunWith(*g, options, decomp::ExecutorKind::kPooled, threads),
            serial);
      }
    }
  }
}

// Classification happens once per block, at emission, and the block's
// task runs it. Tree-classified runs under a batching threshold most
// blocks cross must still agree record for record (estimated_cost and
// used included) across serial, pooled and the cluster wrapper.
TEST(ExecutorIdentityTest, TreeClassifiedSplitRunsMatchAcrossExecutors) {
  const Graph g = gen::GenerateSocialNetwork(gen::FacebookConfig(0.02));
  // #nodes > 20 ? (#edges > 150 ? Bitset/Tomita : Matrix/BKPivot)
  //             : Lists/XPivot
  using Node = decision::DecisionTree::Node;
  std::vector<Node> nodes(5);
  nodes[0] = {false, decision::FeatureId::kNumNodes, 20, 1, 2, {}};
  nodes[1] = {false, decision::FeatureId::kNumEdges, 150, 3, 4, {}};
  nodes[2].options = {Algorithm::kXPivot, StorageKind::kAdjacencyList};
  nodes[3].options = {Algorithm::kTomita, StorageKind::kBitset};
  nodes[4].options = {Algorithm::kBKPivot, StorageKind::kMatrix};
  const decision::DecisionTree tree(nodes);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 40;
  options.tree = &tree;
  options.max_block_cost = 50.0;
  const Captured serial = RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
  bool storages[3] = {false, false, false};
  for (const decomp::BlockTaskRecord& r : serial.records) {
    storages[static_cast<int>(r.used.storage)] = true;
  }
  EXPECT_TRUE(storages[0] && storages[1] && storages[2]);
  for (uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    const Captured pooled =
        RunWith(g, options, decomp::ExecutorKind::kPooled, threads);
    ExpectIdenticalRuns(pooled, serial);
    dist::ClusterConfig config;
    config.num_workers = 3;
    SimulatedClusterExecutor cluster(config, MakePooledExecutor(threads));
    Captured wrapped;
    decomp::FindMaxCliquesOptions wrapped_options = options;
    wrapped_options.block_observer =
        [&wrapped](const decomp::BlockTaskRecord& r) {
          wrapped.records.push_back(r);
        };
    wrapped.stats = cluster.Run(
        g, wrapped_options,
        [&wrapped](std::span<const NodeId> c, uint32_t level) {
          wrapped.emissions.emplace_back(Clique(c.begin(), c.end()), level);
        });
    ExpectIdenticalRuns(wrapped, serial);
  }
}

// Every fixed storage x algorithm combination: the pooled engine's
// per-worker workspace reuse may not perturb emission order or content.
TEST(ExecutorIdentityTest, FixedCombosMatchAcrossThreads) {
  Rng rng(37);
  const Graph g = gen::BarabasiAlbert(90, 3, &rng);
  for (Algorithm algorithm :
       {Algorithm::kBKPivot, Algorithm::kTomita, Algorithm::kXPivot}) {
    for (StorageKind storage :
         {StorageKind::kAdjacencyList, StorageKind::kMatrix,
          StorageKind::kBitset}) {
      decomp::FindMaxCliquesOptions options;
      options.max_block_size = 18;
      options.fixed = {algorithm, storage};
      const Captured serial =
          RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
      for (uint32_t threads : {2u, 4u, 8u}) {
        SCOPED_TRACE(testing::Message() << ComboName(storage, algorithm)
                                        << " threads " << threads);
        ExpectIdenticalRuns(
            RunWith(g, options, decomp::ExecutorKind::kPooled, threads),
            serial);
      }
    }
  }
}

TEST(ExecutorIdentityTest, BatchResultsMatchAcrossExecutors) {
  Rng rng(103);
  Graph g = gen::BarabasiAlbert(60, 3, &rng);
  decomp::FindMaxCliquesOptions serial_options;
  serial_options.max_block_size = 12;
  serial_options.executor = decomp::ExecutorKind::kSerial;
  decomp::FindMaxCliquesOptions pooled_options = serial_options;
  pooled_options.executor = decomp::ExecutorKind::kPooled;
  pooled_options.num_threads = 4;
  decomp::FindMaxCliquesResult serial =
      decomp::FindMaxCliques(g, serial_options);
  decomp::FindMaxCliquesResult pooled =
      decomp::FindMaxCliques(g, pooled_options);
  mce::test::ExpectSameCliques(pooled.cliques, serial.cliques);
  EXPECT_EQ(pooled.origin_level, serial.origin_level);
  mce::test::ExpectMatchesNaive(g, serial.cliques);
}

TEST(ExecutorStatsTest, SerialReportsOneThreadAndNoOverlap) {
  Rng rng(107);
  Graph g = gen::BarabasiAlbert(60, 3, &rng);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 12;
  const Captured run = RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
  ASSERT_FALSE(run.stats.levels.empty());
  for (const decomp::LevelStats& level : run.stats.levels) {
    EXPECT_EQ(level.analyze_threads, 1u);
    EXPECT_DOUBLE_EQ(level.overlap_seconds, 0.0);
    EXPECT_GE(level.idle_seconds, 0.0);
    EXPECT_DOUBLE_EQ(level.busiest_worker_seconds, level.block_seconds);
  }
}

TEST(ExecutorStatsTest, PooledReportsThreadsAndNonNegativeOverlap) {
  Rng rng(109);
  Graph g = gen::BarabasiAlbert(80, 3, &rng);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 12;
  const Captured run = RunWith(g, options, decomp::ExecutorKind::kPooled, 4);
  ASSERT_FALSE(run.stats.levels.empty());
  // The first level has no predecessor to overlap with; deeper levels may
  // overlap, but the measurement is wall-clock dependent, so only sign and
  // bounds are asserted.
  EXPECT_DOUBLE_EQ(run.stats.levels[0].overlap_seconds, 0.0);
  for (const decomp::LevelStats& level : run.stats.levels) {
    if (level.blocks > 0 && !run.stats.used_fallback) {
      EXPECT_EQ(level.analyze_threads, 4u);
    }
    EXPECT_GE(level.overlap_seconds, 0.0);
    EXPECT_LE(level.overlap_seconds, level.decompose_seconds + 1e-9);
    EXPECT_GE(level.idle_seconds, 0.0);
  }
}

// Satellite: a level that produces cliques but emits none of them (all
// filtered by Lemma 1) must still report correct stats and become ready
// for delivery. StarGraph(20): the center is the only hub, level 1 finds
// {center}, which is not maximal in G.
TEST(ExecutorStatsTest, LevelWithZeroEmittedCliquesReportsCorrectStats) {
  const Graph g = mce::test::StarGraph(20);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 10;
  for (decomp::ExecutorKind kind :
       {decomp::ExecutorKind::kSerial, decomp::ExecutorKind::kPooled}) {
    const Captured run = RunWith(g, options, kind, 4);
    EXPECT_FALSE(run.stats.used_fallback);
    ASSERT_EQ(run.stats.levels.size(), 2u);
    // 19 edges = 19 maximal cliques, all from level 0.
    EXPECT_EQ(run.stats.cliques_emitted, 19u);
    EXPECT_EQ(run.stats.levels[0].cliques, 19u);
    // Level 1 produced one clique pre-filter ({center}) and emitted none.
    EXPECT_EQ(run.stats.levels[1].blocks, 1u);
    EXPECT_EQ(run.stats.levels[1].cliques, 1u);
    for (const auto& [clique, level] : run.emissions) {
      EXPECT_EQ(level, 0u);
      EXPECT_EQ(clique.size(), 2u);
    }
  }
}

TEST(ExecutorStatsTest, EmptyGraphYieldsOneEmptyLevel) {
  const Graph g = mce::test::PathGraph(0);
  for (decomp::ExecutorKind kind :
       {decomp::ExecutorKind::kSerial, decomp::ExecutorKind::kPooled}) {
    const Captured run = RunWith(g, {}, kind, 4);
    EXPECT_TRUE(run.emissions.empty());
    EXPECT_FALSE(run.stats.used_fallback);
    ASSERT_EQ(run.stats.levels.size(), 1u);
    EXPECT_EQ(run.stats.levels[0].blocks, 0u);
    EXPECT_EQ(run.stats.levels[0].cliques, 0u);
  }
}

// Satellite: the m-core fallback under num_threads > 1 stays an indivisible
// serial task with byte-identical emission.
TEST(ExecutorFallbackTest, FallbackIsByteIdenticalAcrossThreadCounts) {
  const Graph g = gen::Complete(12);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 6;
  const Captured serial = RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
  EXPECT_TRUE(serial.stats.used_fallback);
  ASSERT_EQ(serial.emissions.size(), 1u);
  for (uint32_t threads : {2u, 8u}) {
    const Captured pooled =
        RunWith(g, options, decomp::ExecutorKind::kPooled, threads);
    ExpectIdenticalRuns(pooled, serial);
    // The fallback runs as one serial task regardless of the pool size.
    EXPECT_EQ(pooled.stats.levels.back().analyze_threads, 1u);
  }
}

TEST(SimulatedClusterExecutorTest, MatchesInnerAndSchedulesRealTaskStream) {
  Rng rng(111);
  Graph g = gen::BarabasiAlbert(80, 3, &rng);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 12;

  Captured inner_run;
  options.block_observer = [&inner_run](const decomp::BlockTaskRecord& r) {
    inner_run.records.push_back(r);
  };
  std::unique_ptr<Executor> reference = MakeSerialExecutor();
  inner_run.stats = reference->Run(
      g, options, [&inner_run](std::span<const NodeId> c, uint32_t level) {
        inner_run.emissions.emplace_back(Clique(c.begin(), c.end()), level);
      });

  dist::ClusterConfig config;
  config.num_workers = 4;
  SimulatedClusterExecutor cluster(config, MakeSerialExecutor());
  Captured cluster_run;
  options.block_observer = [&cluster_run](const decomp::BlockTaskRecord& r) {
    cluster_run.records.push_back(r);
  };
  cluster_run.stats = cluster.Run(
      g, options, [&cluster_run](std::span<const NodeId> c, uint32_t level) {
        cluster_run.emissions.emplace_back(Clique(c.begin(), c.end()), level);
      });

  // The wrapper must not perturb the algorithmic output at all, and the
  // caller's observer still sees every record although the wrapper's
  // collector sits in front of it.
  ExpectIdenticalRuns(cluster_run, inner_run);
  EXPECT_FALSE(cluster_run.records.empty());

  // One simulation per level, scheduling exactly the level's block tasks.
  ASSERT_EQ(cluster.levels().size(), cluster_run.stats.levels.size());
  for (size_t l = 0; l < cluster.levels().size(); ++l) {
    const LevelSimulation& sim = cluster.levels()[l];
    uint64_t tasks = 0;
    for (const dist::WorkerTimeline& w : sim.simulation.workers) {
      tasks += w.tasks;
    }
    EXPECT_EQ(tasks, cluster_run.stats.levels[l].blocks);
    EXPECT_GE(sim.decompose_seconds, 0.0);
    EXPECT_EQ(sim.simulation.assignment.size(),
              cluster_run.stats.levels[l].blocks);
  }
}

TEST(SimulatedClusterExecutorTest, BlockRecordsMatchSerialAndPooledInners) {
  // The observer coverage contract: wrapping either engine in the cluster
  // simulator must leave the BlockTaskRecord stream (and the emission)
  // byte-identical to a plain serial run on the same input.
  const Graph g = gen::GenerateSocialNetwork(gen::FacebookConfig(0.01));
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 25;
  const Captured plain_serial =
      RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
  EXPECT_GT(plain_serial.records.size(), 0u);

  dist::ClusterConfig config;
  config.num_workers = 3;
  auto run_wrapped = [&](std::unique_ptr<Executor> inner) {
    SimulatedClusterExecutor cluster(config, std::move(inner));
    Captured out;
    decomp::FindMaxCliquesOptions wrapped = options;
    wrapped.block_observer = [&out](const decomp::BlockTaskRecord& r) {
      out.records.push_back(r);
    };
    out.stats = cluster.Run(
        g, wrapped, [&out](std::span<const NodeId> c, uint32_t level) {
          out.emissions.emplace_back(Clique(c.begin(), c.end()), level);
        });
    return out;
  };

  ExpectIdenticalRuns(run_wrapped(MakeSerialExecutor()), plain_serial);
  for (size_t threads : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "pooled inner, threads " << threads);
    ExpectIdenticalRuns(run_wrapped(MakePooledExecutor(threads)),
                        plain_serial);
  }
}

// Placement never changes which cliques exist: the wrapped engine's
// collected output is the naive reference under every strategy.
TEST(SimulatedClusterExecutorTest, CollectedCliquesMatchNaiveReference) {
  Rng rng(83);
  const Graph er = gen::ErdosRenyiGnp(35, 0.2, &rng);
  const Graph ba = gen::BarabasiAlbert(60, 3, &rng);
  for (dist::PartitionStrategy strategy :
       {dist::PartitionStrategy::kGreedyLpt, dist::PartitionStrategy::kHash}) {
    for (const Graph* g : {&er, &ba}) {
      SCOPED_TRACE(testing::Message() << ToString(strategy) << " on "
                                      << g->num_nodes() << " nodes");
      decomp::FindMaxCliquesOptions options;
      options.max_block_size = 10;
      dist::ClusterConfig config;
      config.strategy = strategy;
      SimulatedClusterExecutor cluster(config, MakeExecutor(options));
      decomp::FindMaxCliquesResult result =
          CollectToResult(cluster, *g, options);
      mce::test::ExpectMatchesNaive(*g, result.cliques);
    }
  }
}

// The m-core fallback under a 4-thread pooled inner: flagged, identical
// to the serial run, one indivisible task, one simulation per level.
TEST(SimulatedClusterExecutorTest, FallbackPropagatesUnderMultipleThreads) {
  const Graph g = gen::Complete(12);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 6;
  decomp::FindMaxCliquesResult serial = decomp::FindMaxCliques(g, options);
  EXPECT_TRUE(serial.used_fallback);
  options.num_threads = 4;
  dist::ClusterConfig config;
  config.num_workers = 4;
  SimulatedClusterExecutor cluster(config, MakeExecutor(options));
  decomp::FindMaxCliquesResult wrapped = CollectToResult(cluster, g, options);
  EXPECT_TRUE(wrapped.used_fallback);
  mce::test::ExpectSameCliques(wrapped.cliques, serial.cliques);
  EXPECT_EQ(wrapped.origin_level, serial.origin_level);
  ASSERT_FALSE(wrapped.levels.empty());
  EXPECT_EQ(wrapped.levels.back().analyze_threads, 1u);
  EXPECT_EQ(cluster.levels().size(), wrapped.levels.size());
}

TEST(MakeExecutorTest, ResolveThreadCountHonorsExplicitRequests) {
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_EQ(ResolveThreadCount(7), 7u);
  EXPECT_GE(ResolveThreadCount(0), 1u);
}

// A max_block_cost of 1 batches nothing: every block is its own task and
// the pool's (level, cost) order alone decides the order they run in. The
// emission, observer stream, and per-level stats must still be
// byte-identical to the serial run.
TEST(ShardIdentityTest, ForcedSplitMatchesSerialAcrossCorpusAndThreads) {
  const std::vector<Graph> corpus = Corpus();
  for (size_t gi = 0; gi < corpus.size(); ++gi) {
    const Graph& g = corpus[gi];
    for (uint32_t m : {3u, 8u, 20u}) {
      decomp::FindMaxCliquesOptions options;
      options.max_block_size = m;
      options.max_block_cost = 1.0;  // no block is batched
      const Captured serial =
          RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
      for (uint32_t threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(testing::Message() << "graph " << gi << " m " << m
                                        << " threads " << threads);
        const Captured pooled =
            RunWith(g, options, decomp::ExecutorKind::kPooled, threads);
        ExpectIdenticalRuns(pooled, serial);
      }
    }
  }
}

TEST(ShardIdentityTest, SocialStandInForcedSplitMatchesSerial) {
  const Graph g = gen::GenerateSocialNetwork(gen::FacebookConfig(0.02));
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 40;
  options.max_block_cost = 50.0;
  const Captured serial = RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
  EXPECT_GT(serial.stats.cliques_emitted, 0u);
  for (uint32_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    ExpectIdenticalRuns(
        RunWith(g, options, decomp::ExecutorKind::kPooled, threads), serial);
  }
}

// The other batching extremes: a threshold every block is below (whole
// levels batch together) and batching disabled outright.
TEST(ShardIdentityTest, SingleShardAndNoSplitAreByteIdentical) {
  Rng rng(113);
  const Graph g = gen::BarabasiAlbert(70, 4, &rng);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 12;
  const Captured serial = RunWith(g, options, decomp::ExecutorKind::kSerial, 1);

  decomp::FindMaxCliquesOptions huge = options;
  huge.max_block_cost = 1e18;  // every block is batched
  decomp::FindMaxCliquesOptions off = options;
  off.split_blocks = false;  // --no-split
  off.max_block_cost = 1e18;  // would batch everything if honored
  for (uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    ExpectIdenticalRuns(
        RunWith(g, huge, decomp::ExecutorKind::kPooled, threads), serial);
    ExpectIdenticalRuns(
        RunWith(g, off, decomp::ExecutorKind::kPooled, threads), serial);
  }
}

// The m-core fallback bypasses block decomposition entirely, so the
// batching threshold must not touch it.
TEST(ShardIdentityTest, FallbackIgnoresSplitThreshold) {
  const Graph g = gen::Complete(12);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 6;
  options.max_block_cost = 1.0;
  const Captured serial = RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
  EXPECT_TRUE(serial.stats.used_fallback);
  for (uint32_t threads : {2u, 8u}) {
    const Captured pooled =
        RunWith(g, options, decomp::ExecutorKind::kPooled, threads);
    ExpectIdenticalRuns(pooled, serial);
  }
}

// CollectToResult's order is exactly that of sorting the emitted
// (Clique, level) pairs, in whatever order they were emitted.
using Emission = std::vector<std::pair<Clique, uint32_t>>;

// Replays a fixed emission; the graph and options are ignored.
class ScriptedExecutor final : public Executor {
 public:
  explicit ScriptedExecutor(Emission script) : script_(std::move(script)) {}

  decomp::StreamingStats Run(const Graph&,
                             const decomp::FindMaxCliquesOptions&,
                             const decomp::LeveledCliqueCallback& emit)
      override {
    for (const auto& [clique, level] : script_) emit(clique, level);
    return {};
  }

 private:
  Emission script_;
};

// Runs `inner` and records its emission on the way to the collector.
class RecordingExecutor final : public Executor {
 public:
  explicit RecordingExecutor(Executor& inner) : inner_(inner) {}

  decomp::StreamingStats Run(const Graph& g,
                             const decomp::FindMaxCliquesOptions& options,
                             const decomp::LeveledCliqueCallback& emit)
      override {
    return inner_.Run(
        g, options, [&](std::span<const NodeId> c, uint32_t level) {
          emitted_.emplace_back(Clique(c.begin(), c.end()), level);
          emit(c, level);
        });
  }

  const Emission& emitted() const { return emitted_; }

 private:
  Executor& inner_;
  Emission emitted_;
};

// The oracle: the pair sort of `emitted`, compared element for element
// with no canonicalization.
void ExpectPairSortOrder(const decomp::FindMaxCliquesResult& got,
                         Emission emitted) {
  std::sort(emitted.begin(), emitted.end());
  ASSERT_EQ(got.cliques.size(), emitted.size());
  ASSERT_EQ(got.origin_level.size(), emitted.size());
  for (size_t i = 0; i < emitted.size(); ++i) {
    ASSERT_EQ(got.cliques.cliques()[i], emitted[i].first) << "at " << i;
    ASSERT_EQ(got.origin_level[i], emitted[i].second) << "at " << i;
  }
}

// Collects `script` over an edgeless n-node graph as given, reversed and
// shuffled.
void ExpectCollectedInPairOrder(NodeId n, Emission script) {
  const Graph g = GraphBuilder(n).Build();
  Rng rng(n + 7);
  for (const char* pass : {"as given", "reversed", "shuffled"}) {
    SCOPED_TRACE(testing::Message() << "n " << n << ", emission " << pass);
    if (pass[0] == 'r') std::reverse(script.begin(), script.end());
    if (pass[0] == 's') rng.Shuffle(&script);
    ScriptedExecutor scripted(script);
    ExpectPairSortOrder(CollectToResult(scripted, g, {}), script);
  }
}

constexpr NodeId kCollectorSizes[] = {1, 2, 4095, 4096, 4097, 8192};

TEST(CollectToResultTest, EmptyGraphYieldsTheEmptyClique) {
  ExpectCollectedInPairOrder(0, {{Clique{}, 0}});
}

TEST(CollectToResultTest, IdsAtBucketEdgesAndTheLastId) {
  for (NodeId n : kCollectorSizes) {
    // Bucket boundaries for shifts 0, 1 and 2, the middle and the top.
    std::vector<NodeId> ids = {0, n / 2 - 1, n / 2, n - 2, n - 1};
    for (NodeId shift : {0u, 1u, 2u}) {
      for (NodeId bucket : {1u, 2u, 1023u, 2047u, 2048u}) {
        ids.push_back((bucket << shift) - 1);
        ids.push_back(bucket << shift);
      }
    }
    std::erase_if(ids, [n](NodeId v) { return v >= n; });
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    Emission script;
    for (size_t i = 0; i < ids.size(); ++i) {
      script.push_back({{ids[i]}, 0});
      if (i + 1 < ids.size()) script.push_back({{ids[i], ids[i + 1]}, 1});
      if (ids[i] != n - 1) script.push_back({{ids[i], n - 1}, 2});
    }
    ExpectCollectedInPairOrder(n, script);
  }
}

TEST(CollectToResultTest, LongCliquesSharingThePackedPrefix) {
  // 8,192 nodes pack 4 leading ids per key, 4,097 pack 4, 4,095 pack 5:
  // these cliques tie on every packed id and differ only past them.
  for (NodeId n : {4095u, 4097u, 8192u}) {
    const Clique head = {3, 700, 701, 4000, 4001};
    Emission script;
    for (NodeId tail : {4050u, 4051u, 4093u}) {
      Clique c = head;
      c.push_back(tail);
      script.push_back({c, 0});
      c.push_back(tail + 1);
      script.push_back({c, 1});
    }
    script.push_back({head, 0});
    script.push_back({{3, 700, 701, 4000}, 0});
    ExpectCollectedInPairOrder(n, script);
  }
}

TEST(CollectToResultTest, PrefixCliquesAndOneCliqueUnderTwoLevels) {
  for (NodeId n : kCollectorSizes) {
    const NodeId top = n - 1;
    Emission script = {{{0}, 0}, {{0}, 2}};
    if (n > 2) {
      // {0} is a prefix of {0, 1} and {0, top}, {0, 1} of {0, 1, top};
      // {0} and {0, 1, top} each come under two levels.
      script.push_back({{0, top}, 1});
      script.push_back({{0, 1}, 0});
      script.push_back({{0, 1, top}, 3});
      script.push_back({{0, 1, top}, 1});
      script.push_back({{1, top}, 0});
    }
    ExpectCollectedInPairOrder(n, script);
  }
}

TEST(CollectToResultTest, OneIdSmallestInEveryClique) {
  // Every clique contains id 0, so one bucket holds them all.
  Rng rng(17);
  for (NodeId n : {4097u, 8192u}) {
    Emission script;
    for (int i = 0; i < 2000; ++i) {
      const uint64_t size = rng.NextBounded(9);
      std::vector<uint64_t> picked = rng.SampleWithoutReplacement(n - 1, size);
      Clique c = {0};
      for (uint64_t v : picked) c.push_back(static_cast<NodeId>(v + 1));
      std::sort(c.begin(), c.end());
      script.push_back({c, static_cast<uint32_t>(rng.NextBounded(3))});
      if (i % 5 == 0) script.push_back({c, 3});
    }
    ExpectCollectedInPairOrder(n, script);
  }
}

TEST(CollectToResultTest, RandomCliquesWithTheirRelatives) {
  Rng rng(23);
  for (NodeId n : kCollectorSizes) {
    Emission script;
    for (int i = 0; i < 1000; ++i) {
      const uint64_t size = 1 + rng.NextBounded(std::min<NodeId>(n, 12));
      std::vector<uint64_t> picked = rng.SampleWithoutReplacement(n, size);
      Clique c(picked.begin(), picked.end());
      std::sort(c.begin(), c.end());
      const uint32_t level = static_cast<uint32_t>(rng.NextBounded(4));
      script.push_back({c, level});
      // A prefix, an extension and the same clique one level deeper.
      if (c.size() > 1) script.push_back({Clique(c.begin(), c.end() - 1), 0});
      if (c.back() + 1 < n) {
        Clique longer = c;
        longer.push_back(c.back() + 1);
        script.push_back({longer, level});
      }
      script.push_back({c, level + 1});
    }
    ExpectCollectedInPairOrder(n, script);
  }
}

// Every engine, collected: the result is the pair sort of the emission it
// streamed, on a graph large enough (n > 4,096) that a bucket spans
// several smallest ids.
TEST(CollectToResultTest, EveryExecutorCollectsItsEmissionInPairOrder) {
  Rng rng(29);
  const Graph g = gen::BarabasiAlbert(5000, 4, &rng);
  ASSERT_GT(g.num_nodes(), 4096u);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 20;
  auto check = [&](const char* name, Executor& engine) {
    SCOPED_TRACE(name);
    RecordingExecutor recorder(engine);
    const decomp::FindMaxCliquesResult result =
        CollectToResult(recorder, g, options);
    ASSERT_GT(recorder.emitted().size(), 0u);
    EXPECT_GT(result.levels.size(), 1u);
    ExpectPairSortOrder(result, recorder.emitted());
  };
  std::unique_ptr<Executor> serial = MakeSerialExecutor();
  check("serial", *serial);
  std::unique_ptr<Executor> pooled = MakePooledExecutor(4);
  check("pooled@4", *pooled);
  dist::ClusterConfig config;
  config.num_workers = 4;
  SimulatedClusterExecutor cluster(config, MakePooledExecutor(4));
  check("cluster", cluster);
}

}  // namespace
}  // namespace mce::exec
