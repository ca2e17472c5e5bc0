// The executors and the trace recorder must agree: LevelStats are the
// fold of the recorded spans, and the metrics registry reflects the
// workload.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "gen/generators.h"
#include "gen/social.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/random.h"

namespace mce::exec {
namespace {

struct TracedRun {
  decomp::StreamingStats stats;
  std::vector<obs::TraceEvent> events;
  uint64_t counter(obs::MetricsRegistry& registry, const char* name) {
    return registry.GetCounter(name).value();
  }
};

TracedRun RunTraced(const Graph& g, decomp::ExecutorKind kind,
                    uint32_t threads, obs::TraceRecorder* recorder,
                    obs::MetricsRegistry* registry, uint32_t m = 10,
                    bool reduce = false,
                    double max_block_cost = decomp::kDefaultMaxBlockCost) {
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = m;
  options.reduce = reduce;
  options.max_block_cost = max_block_cost;
  options.executor = kind;
  options.num_threads = threads;
  options.trace = recorder;
  options.metrics = registry;
  TracedRun out;
  out.stats = decomp::FindMaxCliquesStreaming(
      g, options, [](std::span<const NodeId>, uint32_t) {});
  if (recorder != nullptr) out.events = recorder->Events();
  return out;
}

/// The recorded DAG spans, each on its recording thread's track — the
/// lanes the live fold kept apart.
std::vector<obs::TaskSpan> SpansOnTrackLanes(
    const obs::TraceRecorder& recorder) {
  std::vector<obs::TaskSpan> spans;
  for (const obs::TraceRecorder::ThreadTrack& track : recorder.Tracks()) {
    for (const obs::TraceEvent& e : track.events) {
      if (!obs::IsDagTask(e.kind)) continue;
      obs::TaskSpan span = obs::TaskSpanFromEvent(e);
      span.lane_tid = track.tid;
      spans.push_back(span);
    }
  }
  return spans;
}

TEST(ExecTraceTest, SerialExecutorRecordsEveryTask) {
  Rng rng(7);
  const Graph ba = gen::BarabasiAlbert(80, 5, &rng);
  // Power-law with a degree-1 floor: the reduction prepass strips part of
  // it, so its reduce.* counters are non-trivial.
  const Graph powerlaw = gen::PowerLawConfigurationModel(400, 2.5, 1, 40, &rng);
  for (const auto& [g, reduce] :
       {std::pair{&ba, false}, std::pair{&powerlaw, true}}) {
    SCOPED_TRACE(reduce ? "powerlaw, reduce" : "ba");
    obs::TraceRecorder recorder;
    obs::MetricsRegistry registry;
    TracedRun run = RunTraced(*g, decomp::ExecutorKind::kSerial, 1,
                              &recorder, &registry, /*m=*/10, reduce);

    uint64_t decompose_spans = 0, block_spans = 0;
    for (const obs::TraceEvent& e : run.events) {
      EXPECT_GE(e.end_us, e.begin_us);
      if (e.kind == obs::SpanKind::kDecompose) ++decompose_spans;
      if (e.kind == obs::SpanKind::kBlock) ++block_spans;
    }
    uint64_t total_blocks = 0;
    for (const decomp::LevelStats& level : run.stats.levels) {
      total_blocks += level.blocks;
    }
    EXPECT_EQ(decompose_spans, run.stats.levels.size());
    EXPECT_EQ(block_spans, total_blocks);
    EXPECT_GT(block_spans, 0u);

    // The metrics registry saw the same workload the stats report.
    EXPECT_EQ(run.counter(registry, "exec.blocks_analyzed"), total_blocks);
    EXPECT_EQ(run.counter(registry, "pipeline.cliques_emitted"),
              run.stats.cliques_emitted);
    EXPECT_EQ(run.counter(registry, "pipeline.levels"),
              run.stats.levels.size());

    // The reduce.* counters are the run's ReductionStats, written once at
    // the end of the run.
    const reduce::ReductionStats& r = run.stats.reduction;
    EXPECT_EQ(r.enabled, reduce);
    if (reduce) {
      EXPECT_GT(r.vertices_removed, 0u);
    }
    EXPECT_EQ(run.counter(registry, "reduce.isolated_removed"),
              r.isolated_removed);
    EXPECT_EQ(run.counter(registry, "reduce.degree1_removed"),
              r.degree1_removed);
    EXPECT_EQ(run.counter(registry, "reduce.dominated_removed"),
              r.dominated_removed);
    EXPECT_EQ(run.counter(registry, "reduce.twins_merged"), r.twins_merged);
    EXPECT_EQ(run.counter(registry, "reduce.vertices_removed"),
              r.vertices_removed);
    EXPECT_EQ(run.counter(registry, "reduce.edges_removed"), r.edges_removed);
    EXPECT_EQ(run.counter(registry, "reduce.trivial_cliques"),
              r.trivial_cliques);
    EXPECT_EQ(run.counter(registry, "reduce.suppressed_cliques"),
              r.suppressed_cliques);
    EXPECT_EQ(run.counter(registry, "reduce.rounds"), r.rounds);
  }
}

// Every LevelStats field is the fold of the run's own spans: re-folding
// the recorded trace, one lane per recording thread, reproduces the stats
// both executors report — with the reduce prepass, with batching off, and
// on an m-core fallback level. Every block is one BlockTask span, batched
// or not. The serial walk nests its analysis in the decompose, so it never
// idles, waits at a barrier or overlaps.
TEST(ExecTraceTest, LevelStatsAreTheFoldOfTheRecordedSpans) {
  const Graph g = gen::GenerateSocialNetwork(gen::FacebookConfig(0.02));
  struct Case {
    const char* name;
    decomp::ExecutorKind kind;
    uint32_t threads;
    uint32_t m;
    bool reduce;
    double max_block_cost = decomp::kDefaultMaxBlockCost;
  };
  const decomp::ExecutorKind kSerial = decomp::ExecutorKind::kSerial;
  const decomp::ExecutorKind kPooled = decomp::ExecutorKind::kPooled;
  // m = 10 makes the graph its own m-core: decompose, then the fallback.
  for (const Case& c : {Case{"serial", kSerial, 1, 40, false},
                        Case{"pooled@2", kPooled, 2, 40, false},
                        Case{"pooled@4", kPooled, 4, 40, false},
                        Case{"pooled@4 cost 1", kPooled, 4, 40, false, 1.0},
                        Case{"pooled@4 reduce", kPooled, 4, 40, true},
                        Case{"serial fallback", kSerial, 1, 10, false},
                        Case{"pooled@4 fallback", kPooled, 4, 10, false}}) {
    SCOPED_TRACE(c.name);
    obs::TraceRecorder recorder;
    obs::MetricsRegistry registry;
    TracedRun run = RunTraced(g, c.kind, c.threads, &recorder, &registry,
                              c.m, c.reduce, c.max_block_cost);
    ASSERT_GE(run.stats.levels.size(), c.m == 10 ? 1u : 2u);
    EXPECT_EQ(run.stats.used_fallback, c.m == 10);

    const std::vector<decomp::LevelStats> refold =
        obs::FoldLevels(SpansOnTrackLanes(recorder), c.threads);
    ASSERT_EQ(refold.size(), run.stats.levels.size());
    std::vector<std::vector<uint64_t>> block_indices(refold.size());
    for (const obs::TraceEvent& e : run.events) {
      if (e.kind == obs::SpanKind::kBlock) {
        block_indices.at(e.level).push_back(e.index);
      }
    }
    uint64_t total_blocks = 0;
    for (size_t l = 0; l < refold.size(); ++l) {
      SCOPED_TRACE(testing::Message() << "level " << l);
      const decomp::LevelStats& live = run.stats.levels[l];
      const decomp::LevelStats& want = refold[l];
      EXPECT_EQ(live.num_nodes, want.num_nodes);
      EXPECT_EQ(live.num_edges, want.num_edges);
      EXPECT_EQ(live.feasible, want.feasible);
      EXPECT_EQ(live.hubs, want.hubs);
      EXPECT_EQ(live.blocks, want.blocks);
      EXPECT_EQ(live.cliques, want.cliques);
      EXPECT_EQ(live.analyze_threads, want.analyze_threads);
      EXPECT_NEAR(live.decompose_seconds, want.decompose_seconds, 1e-6);
      EXPECT_NEAR(live.analyze_seconds, want.analyze_seconds, 1e-6);
      EXPECT_NEAR(live.block_seconds, want.block_seconds, 1e-6);
      EXPECT_NEAR(live.busiest_worker_seconds, want.busiest_worker_seconds,
                  1e-6);
      EXPECT_NEAR(live.overlap_seconds, want.overlap_seconds, 1e-6);
      EXPECT_NEAR(live.idle_seconds, want.idle_seconds, 1e-6);
      EXPECT_NEAR(live.barrier_idle_seconds, want.barrier_idle_seconds, 1e-6);
      if (c.kind == kSerial) {
        EXPECT_EQ(live.idle_seconds, 0.0);
        EXPECT_EQ(live.barrier_idle_seconds, 0.0);
        EXPECT_EQ(live.overlap_seconds, 0.0);
      }
      // One BlockTask span per block: indices 0..blocks-1, each once.
      std::vector<uint64_t> want_indices(live.blocks);
      std::iota(want_indices.begin(), want_indices.end(), 0);
      std::sort(block_indices[l].begin(), block_indices[l].end());
      EXPECT_EQ(block_indices[l], want_indices);
      total_blocks += live.blocks;
    }

    EXPECT_EQ(run.counter(registry, "exec.blocks_analyzed"), total_blocks);
    EXPECT_EQ(run.counter(registry, "pipeline.cliques_emitted"),
              run.stats.cliques_emitted);
  }
}

// The Lemma-1 filter runs per clique inside the BlockTask that found it,
// so its counters are the only record of it: every hub-level clique is
// checked once, the survivors are exactly the hub-level emission, and
// both executors count the same — with the reduction prepass expanding
// cliques before the check, and with the pooled sinks spilling the
// survivors under a budget.
TEST(ExecTraceTest, FilterCountersMatchHubLevelEmission) {
  const Graph g = gen::GenerateSocialNetwork(gen::FacebookConfig(0.02));
  struct Config {
    const char* name;
    bool reduce;
    bool spill;
  };
  for (const Config& config : {Config{"plain", false, false},
                               Config{"reduce", true, false},
                               Config{"spilling budget", false, true}}) {
    SCOPED_TRACE(config.name);
    std::vector<std::pair<Clique, uint32_t>> serial_emission;
    uint64_t serial_checked = 0, serial_kept = 0;
    for (const decomp::ExecutorKind kind :
         {decomp::ExecutorKind::kSerial, decomp::ExecutorKind::kPooled}) {
      const bool serial = kind == decomp::ExecutorKind::kSerial;
      SCOPED_TRACE(serial ? "serial" : "pooled");
      obs::MetricsRegistry registry;
      decomp::FindMaxCliquesOptions options;
      options.max_block_size = 40;
      options.reduce = config.reduce;
      if (config.spill) {
        // A threshold this small flushes every sink past a few cliques, so
        // the pooled survivors replay from disk whatever the timing.
        options.memory_budget_bytes = 64 << 10;
        options.spill_threshold_bytes = 128;
        options.spill_dir = testing::TempDir();
      }
      options.executor = kind;
      options.num_threads = serial ? 1 : 4;
      options.metrics = &registry;
      std::vector<std::pair<Clique, uint32_t>> emission;
      const decomp::StreamingStats stats = decomp::FindMaxCliquesStreaming(
          g, options, [&emission](std::span<const NodeId> c, uint32_t level) {
            emission.emplace_back(Clique(c.begin(), c.end()), level);
          });
      ASSERT_GE(stats.levels.size(), 2u);
      uint64_t hub_cliques = 0;
      for (size_t l = 1; l < stats.levels.size(); ++l) {
        hub_cliques += stats.levels[l].cliques;
      }
      ASSERT_GT(hub_cliques, 0u) << "corpus must exercise the Lemma-1 filter";
      const uint64_t hub_emitted = static_cast<uint64_t>(std::count_if(
          emission.begin(), emission.end(),
          [](const auto& e) { return e.second >= 1; }));
      const uint64_t checked =
          registry.GetCounter("exec.filter_cliques_checked").value();
      const uint64_t kept =
          registry.GetCounter("exec.filter_cliques_kept").value();
      EXPECT_EQ(checked, hub_cliques);
      EXPECT_EQ(kept, hub_emitted);
      if (serial) {
        serial_emission = std::move(emission);
        serial_checked = checked;
        serial_kept = kept;
      } else {
        if (config.spill) {
          EXPECT_GT(stats.memory.spill_chunks, 0u);
        }
        EXPECT_EQ(checked, serial_checked);
        EXPECT_EQ(kept, serial_kept);
        EXPECT_EQ(emission, serial_emission);
      }
    }
  }
}

TEST(ExecTraceTest, TracedRunsKeepEmissionIdentical) {
  Rng rng(31);
  const Graph g = gen::BarabasiAlbert(60, 4, &rng);
  auto run_cliques = [&g](obs::TraceRecorder* recorder) {
    decomp::FindMaxCliquesOptions options;
    options.max_block_size = 8;
    options.executor = decomp::ExecutorKind::kPooled;
    options.num_threads = 4;
    options.trace = recorder;
    std::vector<std::pair<Clique, uint32_t>> out;
    decomp::FindMaxCliquesStreaming(
        g, options, [&out](std::span<const NodeId> c, uint32_t level) {
          out.emplace_back(Clique(c.begin(), c.end()), level);
        });
    return out;
  };
  obs::TraceRecorder recorder;
  EXPECT_EQ(run_cliques(&recorder), run_cliques(nullptr));
  EXPECT_FALSE(recorder.Events().empty());
}

}  // namespace
}  // namespace mce::exec
