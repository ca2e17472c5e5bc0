// Critical-path / attribution math on synthetic task DAGs with known
// answers, plus a live cross-check: traces recorded by the serial and
// pooled executors must both yield a critical path that explains the
// whole wall clock (the analyzer's --require-critical-path gate), and a
// profile that is exactly the fold of their own spans.

#include "obs/critical_path.h"

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "decomp/find_max_cliques.h"
#include "gen/social.h"
#include "obs/trace.h"

namespace mce::obs {
namespace {

TaskSpan Task(SpanKind kind, uint32_t level, int64_t begin_us,
              int64_t end_us, double cost = 0) {
  TaskSpan s;
  s.kind = kind;
  s.level = level;
  s.begin_us = begin_us;
  s.end_us = end_us;
  s.cost = cost;
  return s;
}

// decompose -> {fast block, slow fallback, slowest block}. The path must
// end at the slowest block — the last finisher — and cover the wall
// exactly.
TEST(CriticalPathTest, FanOutRoutesThroughTheSlowBranch) {
  std::vector<TaskSpan> spans = {
      Task(SpanKind::kDecompose, 0, 0, 100),
      Task(SpanKind::kBlock, 0, 100, 300),       // fast branch
      Task(SpanKind::kFallback, 0, 100, 450),    // slower branch
      Task(SpanKind::kBlock, 0, 150, 600),       // slowest branch
  };
  const CriticalPathResult r = ComputeCriticalPath(spans);
  ASSERT_EQ(r.path.size(), 2u);
  EXPECT_EQ(r.path[0].span, 0u);  // decompose
  EXPECT_EQ(r.path[1].span, 3u);  // the slowest block, not the others
  EXPECT_DOUBLE_EQ(r.path[0].seconds, 100e-6);
  EXPECT_DOUBLE_EQ(r.path[1].seconds, 450e-6);
  EXPECT_DOUBLE_EQ(r.span_seconds, 550e-6);
  EXPECT_DOUBLE_EQ(r.wait_seconds, 50e-6);
  EXPECT_DOUBLE_EQ(r.wall_seconds, 600e-6);
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
}

// The serial executor nests DecomposeTask(L+1) inside DecomposeTask(L);
// exclusive attribution must clip the parent where the child overlaps so
// the chain still telescopes to exactly the wall.
TEST(CriticalPathTest, NestedChainClipsOverlapExactly) {
  std::vector<TaskSpan> spans = {
      Task(SpanKind::kDecompose, 0, 0, 1000),
      Task(SpanKind::kDecompose, 1, 200, 800),  // nested in level 0
      Task(SpanKind::kBlock, 1, 800, 1200),
  };
  const CriticalPathResult r = ComputeCriticalPath(spans);
  ASSERT_EQ(r.path.size(), 3u);
  EXPECT_EQ(r.path[0].span, 0u);
  EXPECT_EQ(r.path[1].span, 1u);
  EXPECT_EQ(r.path[2].span, 2u);
  EXPECT_DOUBLE_EQ(r.path[0].seconds, 200e-6);  // clipped: [0, 200)
  EXPECT_DOUBLE_EQ(r.path[1].seconds, 600e-6);
  EXPECT_DOUBLE_EQ(r.path[2].seconds, 400e-6);
  EXPECT_DOUBLE_EQ(r.span_seconds, 1200e-6);
  EXPECT_DOUBLE_EQ(r.wall_seconds, 1200e-6);
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
}

// All-parallel level with a scheduling gap: the gap between the
// decompose finishing and the blocks starting shows up as wait time on
// the successor, and contributions + waits still cover the wall.
TEST(CriticalPathTest, SchedulingGapBecomesWaitTime) {
  std::vector<TaskSpan> spans = {
      Task(SpanKind::kDecompose, 0, 0, 100),
      Task(SpanKind::kBlock, 0, 150, 250),
      Task(SpanKind::kBlock, 0, 150, 350),  // last finisher
      Task(SpanKind::kBlock, 0, 150, 300),
  };
  const CriticalPathResult r = ComputeCriticalPath(spans);
  ASSERT_EQ(r.path.size(), 2u);
  EXPECT_EQ(r.path[0].span, 0u);
  EXPECT_EQ(r.path[1].span, 2u);
  EXPECT_DOUBLE_EQ(r.path[0].wait_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.path[1].wait_seconds, 50e-6);  // 100 -> 150 gap
  EXPECT_DOUBLE_EQ(r.span_seconds, 300e-6);
  EXPECT_DOUBLE_EQ(r.wait_seconds, 50e-6);
  EXPECT_DOUBLE_EQ(r.wall_seconds, 350e-6);
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
}

TEST(CriticalPathTest, ReducePrepassIsTheRoot) {
  std::vector<TaskSpan> spans = {
      Task(SpanKind::kDecompose, 0, 50, 100),
      Task(SpanKind::kReduce, 0, 0, 50),
      Task(SpanKind::kBlock, 0, 100, 200),
  };
  const CriticalPathResult r = ComputeCriticalPath(spans);
  ASSERT_EQ(r.path.size(), 3u);
  EXPECT_EQ(spans[r.path[0].span].kind, SpanKind::kReduce);
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
}

TEST(CriticalPathTest, EmptyAndNonDagInputsYieldNoPath) {
  EXPECT_TRUE(ComputeCriticalPath({}).path.empty());
  std::vector<TaskSpan> spans = {Task(SpanKind::kWorkerIdle, 0, 0, 100)};
  const CriticalPathResult r = ComputeCriticalPath(spans);
  EXPECT_TRUE(r.path.empty());
  EXPECT_DOUBLE_EQ(r.wall_seconds, 0.0);  // idle spans are not wall hull
}

TEST(StragglerTest, RankBySecondsOrdersAndTruncates) {
  std::vector<TaskSpan> spans = {
      Task(SpanKind::kBlock, 0, 0, 100),
      Task(SpanKind::kBlock, 0, 0, 400),
      Task(SpanKind::kWorkerIdle, 0, 0, 900),  // never a straggler
      Task(SpanKind::kBlock, 0, 0, 250),
  };
  const std::vector<Straggler> top = RankStragglersBySeconds(spans, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].span, 1u);
  EXPECT_DOUBLE_EQ(top[0].seconds, 400e-6);
  EXPECT_EQ(top[1].span, 3u);
}

// Deviation is calibrated so that 1.0 means "exactly as the cost model
// predicted" over this run; a block taking 3x its fair share ranks first.
TEST(StragglerTest, RankByDeviationFlagsUnderPredictedBlocks) {
  std::vector<TaskSpan> spans = {
      Task(SpanKind::kBlock, 0, 0, 100, /*cost=*/10),
      Task(SpanKind::kBlock, 0, 0, 300, /*cost=*/10),
      Task(SpanKind::kBlock, 0, 0, 200, /*cost=*/20),
      Task(SpanKind::kBlock, 0, 0, 999, /*cost=*/0),  // unpredicted: skipped
  };
  // alpha = 600us / 40 cost units; block 1 ran at 2x its prediction.
  const std::vector<Straggler> top = RankStragglersByDeviation(spans, 4);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].span, 1u);
  EXPECT_NEAR(top[0].deviation, 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(top[0].predicted_cost, 10.0);
  EXPECT_NEAR(top[1].deviation, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(top[2].deviation, 2.0 / 3.0, 1e-9);

  // No predictions anywhere -> no deviation ranking at all.
  std::vector<TaskSpan> bare = {Task(SpanKind::kBlock, 0, 0, 100)};
  EXPECT_TRUE(RankStragglersByDeviation(bare, 4).empty());
}

// Cliques count once, at the span that enumerated them: a block, a
// fallback, the reduce prepass's trivial cliques — and a DecomposeTask
// none, whatever its args; a spill flush that buffered some is no task.
TEST(TaskSpanTest, FromEventsKeepsDagKindsAndLiftsArgs) {
  std::vector<TraceEvent> events(7);
  events[0].kind = SpanKind::kBlock;
  events[0].level = 2;
  events[0].index = 5;
  events[0].begin_us = 10;
  events[0].end_us = 40;
  events[0].args[3] = 7;  // cliques
  events[0].cost = 2.5;
  events[0].prof.task_clock_ns = 123;
  events[0].prof.source = CounterSource::kSoftware;
  events[1].kind = SpanKind::kWorkerIdle;  // observability, not DAG
  events[2].kind = SpanKind::kFallback;
  events[2].args[2] = 4;  // cliques
  events[3].kind = SpanKind::kAdmission;   // observability, not DAG
  events[4].kind = SpanKind::kDecompose;
  events[4].args[2] = 9;  // feasible
  events[4].args[3] = 6;  // hubs
  events[5].kind = SpanKind::kReduce;
  events[5].args[2] = 3;  // trivial cliques
  events[6].kind = SpanKind::kSpillFlush;  // observability, not DAG
  events[6].args[0] = 5;  // cliques flushed

  const std::vector<TaskSpan> spans = TaskSpansFromEvents(events);
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].kind, SpanKind::kBlock);
  EXPECT_EQ(spans[0].level, 2u);
  EXPECT_EQ(spans[0].index, 5u);
  EXPECT_EQ(spans[0].cliques, 7u);
  EXPECT_DOUBLE_EQ(spans[0].cost, 2.5);
  EXPECT_EQ(spans[0].prof.task_clock_ns, 123u);
  EXPECT_EQ(spans[1].kind, SpanKind::kFallback);
  EXPECT_EQ(spans[1].cliques, 4u);
  EXPECT_EQ(spans[2].kind, SpanKind::kDecompose);
  EXPECT_EQ(spans[2].cliques, 0u);
  EXPECT_EQ(spans[3].cliques, 3u);
}

/// An analysis span of `kind` at `level` on lane `lane`.
TaskSpan Analysis(SpanKind kind, uint32_t level, int64_t begin_us,
                  int64_t end_us, int lane, uint64_t cliques = 0) {
  TaskSpan s = Task(kind, level, begin_us, end_us);
  s.lane_tid = lane;
  s.cliques = cliques;
  return s;
}

TaskSpan Decompose(uint32_t level, int64_t begin_us, int64_t end_us,
                   int lane) {
  TaskSpan s = Task(SpanKind::kDecompose, level, begin_us, end_us);
  s.lane_tid = lane;
  s.nodes = 50;
  s.edges = 120;
  s.feasible = 40;
  s.hubs = 10;
  return s;
}

// The serial walk: blocks nested in the decompose window on one lane. The
// decompose is charged its self time only, and with one lane nothing idles.
TEST(LevelFoldTest, SerialShapedLevelHasNoIdle) {
  const std::vector<TaskSpan> spans = {
      Analysis(SpanKind::kBlock, 0, 100, 300, 0, 4),
      Analysis(SpanKind::kBlock, 0, 400, 700, 0, 2),
      Decompose(0, 0, 1000, 0),
  };
  const std::vector<LevelStats> levels = FoldLevels(spans, 1);
  ASSERT_EQ(levels.size(), 1u);
  const LevelStats& l = levels[0];
  EXPECT_EQ(l.num_nodes, 50u);
  EXPECT_EQ(l.num_edges, 120u);
  EXPECT_EQ(l.feasible, 40u);
  EXPECT_EQ(l.hubs, 10u);
  EXPECT_EQ(l.blocks, 2u);
  EXPECT_EQ(l.cliques, 6u);
  EXPECT_EQ(l.analyze_threads, 1u);
  EXPECT_DOUBLE_EQ(l.decompose_seconds, 500e-6);
  EXPECT_DOUBLE_EQ(l.analyze_seconds, 500e-6);
  EXPECT_DOUBLE_EQ(l.block_seconds, 500e-6);
  EXPECT_DOUBLE_EQ(l.busiest_worker_seconds, 500e-6);
  EXPECT_EQ(l.idle_seconds, 0.0);
  EXPECT_EQ(l.barrier_idle_seconds, 0.0);
  EXPECT_EQ(l.overlap_seconds, 0.0);
}

// The pooled engine: analysis starts while the level is still
// decomposing, on other lanes. The gaps between its blocks lie inside the
// decompose, so they are the level's own idle capacity, not a barrier.
TEST(LevelFoldTest, GapsInsideTheDecomposeAreIdleNotBarrier) {
  const std::vector<TaskSpan> spans = {
      Decompose(0, 0, 1000, 0),
      Analysis(SpanKind::kBlock, 0, 100, 200, 1),
      Analysis(SpanKind::kBlock, 0, 500, 600, 1),
      Analysis(SpanKind::kBlock, 0, 150, 400, 2),
  };
  const std::vector<LevelStats> levels = FoldLevels(spans, 4);
  ASSERT_EQ(levels.size(), 1u);
  const LevelStats& l = levels[0];
  EXPECT_EQ(l.analyze_threads, 4u);
  EXPECT_DOUBLE_EQ(l.decompose_seconds, 1000e-6);
  EXPECT_DOUBLE_EQ(l.block_seconds, 450e-6);
  EXPECT_DOUBLE_EQ(l.busiest_worker_seconds, 250e-6);
  EXPECT_DOUBLE_EQ(l.analyze_seconds, 400e-6);  // union, not the hull
  EXPECT_EQ(l.barrier_idle_seconds, 0.0);
  // 4 lanes × 1000 µs, less the decompose's 1000 and the blocks' 450.
  EXPECT_DOUBLE_EQ(l.idle_seconds, 2550e-6);
}

// A stretch where no task of the level runs is a barrier wait: every lane
// of the level is parked at a task-graph boundary.
TEST(LevelFoldTest, GapWithNoTaskOfTheLevelIsBarrier) {
  const std::vector<TaskSpan> spans = {
      Decompose(0, 0, 100, 0),
      Analysis(SpanKind::kBlock, 0, 100, 200, 1),
      Analysis(SpanKind::kBlock, 0, 300, 400, 1),
  };
  const std::vector<LevelStats> levels = FoldLevels(spans, 2);
  ASSERT_EQ(levels.size(), 1u);
  EXPECT_DOUBLE_EQ(levels[0].barrier_idle_seconds, 200e-6);  // 2 × 100
  EXPECT_DOUBLE_EQ(levels[0].idle_seconds, 300e-6);  // 2 × 300 − 100 − 200
}

// The prepass runs outside the recursion: it adds no level and its lane
// carries no analysis work.
TEST(LevelFoldTest, ReduceTaskIsNoWorkerAndNoLevel) {
  const std::vector<TaskSpan> level = {
      Decompose(0, 100, 200, 1),
      Analysis(SpanKind::kBlock, 0, 150, 300, 2, 3),
  };
  std::vector<TaskSpan> with_reduce = level;
  TaskSpan reduce = Task(SpanKind::kReduce, 0, 0, 100);
  reduce.lane_tid = 9;
  reduce.cliques = 5;
  with_reduce.insert(with_reduce.begin(), reduce);
  const std::vector<LevelStats> plain = FoldLevels(level, 2);
  const std::vector<LevelStats> reduced = FoldLevels(with_reduce, 2);
  ASSERT_EQ(reduced.size(), 1u);
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_EQ(reduced[0].cliques, plain[0].cliques);
  EXPECT_EQ(reduced[0].blocks, plain[0].blocks);
  EXPECT_EQ(reduced[0].busiest_worker_seconds,
            plain[0].busiest_worker_seconds);
  EXPECT_EQ(reduced[0].idle_seconds, plain[0].idle_seconds);
  EXPECT_EQ(reduced[0].barrier_idle_seconds, plain[0].barrier_idle_seconds);
}

// One worker runs the indivisible m-core fallback, whatever the pool
// size, and the fallback is no block.
TEST(LevelFoldTest, FallbackLevelRunsOnOneLane) {
  const std::vector<TaskSpan> spans = {
      Decompose(0, 0, 100, 0),
      Decompose(1, 100, 150, 1),
      Analysis(SpanKind::kFallback, 1, 150, 400, 1, 7),
  };
  const std::vector<LevelStats> levels = FoldLevels(spans, 4);
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_EQ(levels[0].analyze_threads, 4u);
  const LevelStats& fallback = levels[1];
  EXPECT_EQ(fallback.analyze_threads, 1u);
  EXPECT_EQ(fallback.blocks, 0u);
  EXPECT_EQ(fallback.cliques, 7u);
  EXPECT_DOUBLE_EQ(fallback.analyze_seconds, 250e-6);
  EXPECT_EQ(fallback.idle_seconds, 0.0);
  EXPECT_EQ(fallback.barrier_idle_seconds, 0.0);
}

// Overlap is the decompose window against the hulls of the earlier
// levels' analysis — the pipelining win.
TEST(LevelFoldTest, OverlapClipsTheDecomposeAgainstEarlierAnalysis) {
  const std::vector<TaskSpan> spans = {
      Decompose(0, 0, 100, 0),
      Analysis(SpanKind::kBlock, 0, 100, 400, 1),
      Decompose(1, 300, 600, 0),
      Analysis(SpanKind::kBlock, 1, 600, 700, 1),
  };
  const std::vector<LevelStats> levels = FoldLevels(spans, 2);
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_EQ(levels[0].overlap_seconds, 0.0);
  EXPECT_DOUBLE_EQ(levels[1].overlap_seconds, 100e-6);
}

void ExpectSameBucket(const ProfileBucket& live, const ProfileBucket& refold) {
  EXPECT_EQ(live.spans, refold.spans);
  // The same span windows, summed in completion order live and in track
  // order re-folded, may round apart in the last bits.
  EXPECT_NEAR(live.seconds, refold.seconds, 1e-9);
  EXPECT_EQ(live.cliques, refold.cliques);
  EXPECT_EQ(live.counters.cycles, refold.counters.cycles);
  EXPECT_EQ(live.counters.instructions, refold.counters.instructions);
  EXPECT_EQ(live.counters.cache_misses, refold.counters.cache_misses);
  EXPECT_EQ(live.counters.branch_misses, refold.counters.branch_misses);
  EXPECT_EQ(live.counters.task_clock_ns, refold.counters.task_clock_ns);
  EXPECT_EQ(live.counters.source, refold.counters.source);
}

/// Every bucket of `live` equals its counterpart in `refold`. by_kind is
/// in first-seen order, which differs between the two folds, so kinds are
/// matched by value.
void ExpectSameProfile(const ProfileStats& live, const ProfileStats& refold) {
  EXPECT_EQ(live.enabled, refold.enabled);
  EXPECT_EQ(live.hardware, refold.hardware);
  {
    SCOPED_TRACE("total");
    ExpectSameBucket(live.total, refold.total);
  }
  const std::map<uint8_t, ProfileBucket> live_kinds(live.by_kind.begin(),
                                                    live.by_kind.end());
  const std::map<uint8_t, ProfileBucket> refold_kinds(
      refold.by_kind.begin(), refold.by_kind.end());
  ASSERT_EQ(live_kinds.size(), refold_kinds.size());
  for (const auto& [kind, bucket] : live_kinds) {
    SCOPED_TRACE(ToString(static_cast<SpanKind>(kind)));
    ASSERT_EQ(refold_kinds.count(kind), 1u);
    ExpectSameBucket(bucket, refold_kinds.at(kind));
  }
  ASSERT_EQ(live.by_level.size(), refold.by_level.size());
  for (size_t level = 0; level < live.by_level.size(); ++level) {
    SCOPED_TRACE(testing::Message() << "level " << level);
    ExpectSameBucket(live.by_level[level], refold.by_level[level]);
  }
}

// The live contract behind `mce_trace_analyze --require-critical-path`:
// a trace from either executor reconstructs into a DAG whose critical
// path (contributions + waits) explains the run's wall clock, and every
// DAG span of a profiled run carries counter attribution. The live
// profile is the fold of the run's own spans, so it equals a re-fold of
// the recorded trace, and both executors count the same cliques. m = 10
// makes the graph its own m-core (decompose + fallback); m = 40 gives
// three levels and hub-level Lemma-1 checks; reduce adds
// the ReduceTask.
TEST(CriticalPathIntegrationTest, SerialAndPooledTracesCoverTheWall) {
  const Graph g = gen::GenerateSocialNetwork(gen::FacebookConfig(0.02));
  for (const uint32_t m : {10u, 40u}) {
    for (const bool reduce : {false, true}) {
      uint64_t serial_cliques = 0;
      uint64_t serial_profile_cliques = 0;
      for (const decomp::ExecutorKind kind :
           {decomp::ExecutorKind::kSerial, decomp::ExecutorKind::kPooled}) {
        const bool serial = kind == decomp::ExecutorKind::kSerial;
        SCOPED_TRACE(testing::Message()
                     << "m " << m << (reduce ? " reduce" : "")
                     << (serial ? " serial" : " pooled"));
        TraceRecorder recorder;
        decomp::FindMaxCliquesOptions options;
        options.max_block_size = m;
        options.reduce = reduce;
        options.executor = kind;
        options.num_threads = 4;
        options.trace = &recorder;
        options.profile = true;
        uint64_t cliques = 0;
        const decomp::StreamingStats stats = decomp::FindMaxCliquesStreaming(
            g, options,
            [&cliques](std::span<const NodeId>, uint32_t) { ++cliques; });

        const std::vector<TaskSpan> spans =
            TaskSpansFromEvents(recorder.Events());
        ASSERT_FALSE(spans.empty());
        for (const TaskSpan& s : spans) {
          EXPECT_NE(s.prof.source, CounterSource::kNone)
              << "unprofiled DAG span of kind " << ToString(s.kind);
        }
        const CriticalPathResult r = ComputeCriticalPath(spans);
        ASSERT_FALSE(r.path.empty());
        EXPECT_NEAR(r.coverage, 1.0, 0.05);
        EXPECT_GT(r.span_seconds, 0.0);

        EXPECT_TRUE(stats.profile.enabled);
        ProfileAccumulator refold;
        for (const TaskSpan& s : spans) refold.Add(s);
        ExpectSameProfile(stats.profile, refold.Snapshot());

        if (serial) {
          serial_cliques = cliques;
          serial_profile_cliques = stats.profile.total.cliques;
        } else {
          EXPECT_EQ(cliques, serial_cliques);  // executors agree
          EXPECT_EQ(stats.profile.total.cliques, serial_profile_cliques);
        }
      }
    }
  }
}

}  // namespace
}  // namespace mce::obs
