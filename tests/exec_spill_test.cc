// Out-of-core execution: spilled clique sinks, mmap graph storage, and the
// memory budget — checked once per block, at emission, where a block that
// would cross it is analyzed on its decompose worker — must not change a
// single emitted byte. Property sweep across generators x m x threads, the
// m-core fallback, the reduction prepass, tiny-budget end-to-end runs
// whose tracked peaks stay near the serial walk's at every thread count —
// plus the trace / metrics contract for spill flushes and admission
// stalls (DESIGN.md §11).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "decomp/cut.h"
#include "decomp/find_max_cliques.h"
#include "exec/executor.h"
#include "gen/generators.h"
#include "gen/social.h"
#include "gen/special.h"
#include "graph/io.h"
#include "graph/subgraph.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "test_util.h"
#include "util/random.h"

namespace mce::exec {
namespace {

struct Captured {
  std::vector<std::pair<Clique, uint32_t>> emissions;
  std::vector<decomp::BlockTaskRecord> records;
  decomp::StreamingStats stats;
};

/// Runs the pipeline, capturing its emission and, when `observe` is set,
/// its observer records. Without an observer the pooled engine takes the
/// path of `mce_cli enumerate --executor pooled`.
Captured RunWith(const Graph& g, decomp::FindMaxCliquesOptions options,
                 decomp::ExecutorKind kind, uint32_t threads,
                 bool observe = true) {
  options.executor = kind;
  options.num_threads = threads;
  Captured out;
  if (observe) {
    options.block_observer = [&out](const decomp::BlockTaskRecord& r) {
      out.records.push_back(r);
    };
  }
  out.stats = decomp::FindMaxCliquesStreaming(
      g, options, [&out](std::span<const NodeId> c, uint32_t level) {
        out.emissions.emplace_back(Clique(c.begin(), c.end()), level);
      });
  return out;
}

/// Forces sinks to spill on nearly every block: a threshold this small is
/// crossed by a handful of cliques, so delivery's chunk replay runs
/// constantly.
decomp::FindMaxCliquesOptions SpillForced(uint32_t m) {
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = m;
  options.spill_threshold_bytes = 128;
  options.spill_dir = testing::TempDir();
  return options;
}

void ExpectIdenticalEmission(const Captured& actual, const Captured& expected) {
  EXPECT_EQ(actual.emissions, expected.emissions);
  EXPECT_EQ(actual.stats.cliques_emitted, expected.stats.cliques_emitted);
  EXPECT_EQ(actual.stats.used_fallback, expected.stats.used_fallback);
  ASSERT_EQ(actual.records.size(), expected.records.size());
  for (size_t i = 0; i < actual.records.size(); ++i) {
    EXPECT_EQ(actual.records[i].level, expected.records[i].level);
    EXPECT_EQ(actual.records[i].cliques, expected.records[i].cliques);
  }
}

std::vector<Graph> Corpus() {
  std::vector<Graph> corpus;
  Rng rng(211);
  corpus.push_back(gen::ErdosRenyiGnp(30, 0.2, &rng));
  corpus.push_back(gen::BarabasiAlbert(50, 3, &rng));
  corpus.push_back(gen::WattsStrogatz(40, 4, 0.2, &rng));
  // Power-law stand-in: the social generator's degree distribution.
  corpus.push_back(gen::GenerateSocialNetwork(gen::FacebookConfig(0.01)));
  return corpus;
}

// The core property: spilled emission is byte-identical to resident
// emission for every generator x m x thread-count combination, through
// both executors.
TEST(SpillIdentityTest, SpilledMatchesResidentAcrossCorpus) {
  const std::vector<Graph> corpus = Corpus();
  for (size_t gi = 0; gi < corpus.size(); ++gi) {
    const Graph& g = corpus[gi];
    for (uint32_t m : {3u, 8u, 20u}) {
      decomp::FindMaxCliquesOptions resident;
      resident.max_block_size = m;
      const Captured baseline =
          RunWith(g, resident, decomp::ExecutorKind::kSerial, 1);
      const decomp::FindMaxCliquesOptions spill = SpillForced(m);
      ExpectIdenticalEmission(
          RunWith(g, spill, decomp::ExecutorKind::kSerial, 1), baseline);
      for (uint32_t threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(testing::Message() << "graph " << gi << " m " << m
                                        << " threads " << threads);
        ExpectIdenticalEmission(
            RunWith(g, spill, decomp::ExecutorKind::kPooled, threads),
            baseline);
      }
    }
  }
}

// Spilling through the m-core fallback: the whole-graph MCE's cliques pass
// through a sink too, and must replay unchanged.
TEST(SpillIdentityTest, FallbackSpillsByteIdentically) {
  const Graph g = gen::Complete(12);
  decomp::FindMaxCliquesOptions resident;
  resident.max_block_size = 6;
  const Captured baseline =
      RunWith(g, resident, decomp::ExecutorKind::kSerial, 1);
  ASSERT_TRUE(baseline.stats.used_fallback);
  for (uint32_t threads : {2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    const Captured spilled =
        RunWith(g, SpillForced(6), decomp::ExecutorKind::kPooled, threads);
    ExpectIdenticalEmission(spilled, baseline);
  }
}

// The reduction prepass emits reduced-away cliques ahead of the pipeline
// and re-expands block cliques before the filter; spilling underneath it
// must stay invisible.
TEST(SpillIdentityTest, ReducePrepassSpillsByteIdentically) {
  Rng rng(31);
  const Graph g = gen::BarabasiAlbert(60, 2, &rng);
  decomp::FindMaxCliquesOptions resident;
  resident.max_block_size = 8;
  resident.reduce = true;
  const Captured baseline =
      RunWith(g, resident, decomp::ExecutorKind::kSerial, 1);
  decomp::FindMaxCliquesOptions spill = SpillForced(8);
  spill.reduce = true;
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    ExpectIdenticalEmission(
        RunWith(g, spill, decomp::ExecutorKind::kPooled, threads), baseline);
  }
}

// An mmap-backed graph must run the pipeline byte-identically to its heap
// twin — with and without spilling on top.
TEST(SpillIdentityTest, MmapGraphMatchesHeapThroughPipeline) {
  const Graph g = gen::GenerateSocialNetwork(gen::FacebookConfig(0.01));
  const std::string path = testing::TempDir() + "/spill_pipeline.mcsr";
  ASSERT_TRUE(WriteCsrBinary(g, path).ok());
  Result<Graph> mapped = OpenMmapGraph(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();

  decomp::FindMaxCliquesOptions resident;
  resident.max_block_size = 20;
  const Captured heap = RunWith(g, resident, decomp::ExecutorKind::kSerial, 1);
  ExpectIdenticalEmission(
      RunWith(*mapped, resident, decomp::ExecutorKind::kSerial, 1), heap);
  for (uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    ExpectIdenticalEmission(
        RunWith(*mapped, SpillForced(20), decomp::ExecutorKind::kPooled,
                threads),
        heap);
  }
  std::remove(path.c_str());
}

// End-to-end under a budget far below the resident working set: every block
// still completes (the budget keeps blocks off the pool, never drops them)
// and the emission is untouched, observed or not. Every BlockTask frees its
// block when it ends and no task waits on the budget, so the peak holds at
// every thread count: each budgeted run, observed or not, at 2 or 4
// workers, stays within 1.5x of the 4-worker unobserved run.
TEST(MemoryBudgetTest, TinyBudgetRunCompletesAndMatchesUnbudgeted) {
  const Graph g = gen::GenerateSocialNetwork(gen::FacebookConfig(0.02));
  decomp::FindMaxCliquesOptions unbudgeted;
  unbudgeted.max_block_size = 40;
  const Captured baseline =
      RunWith(g, unbudgeted, decomp::ExecutorKind::kPooled, 4);
  EXPECT_GT(baseline.stats.memory.peak_tracked_bytes, 0u);
  EXPECT_EQ(baseline.stats.memory.budget_bytes, 0u);

  decomp::FindMaxCliquesOptions budgeted = unbudgeted;
  budgeted.memory_budget_bytes = 64ull << 10;  // well under the resident peak
  budgeted.spill_dir = testing::TempDir();
  const Captured reference = RunWith(g, budgeted, decomp::ExecutorKind::kPooled,
                                     4, /*observe=*/false);
  const double bound =
      1.5 * static_cast<double>(reference.stats.memory.peak_tracked_bytes);
  for (uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    const Captured tight =
        RunWith(g, budgeted, decomp::ExecutorKind::kPooled, threads);
    ExpectIdenticalEmission(tight, baseline);
    // Every block the unbudgeted run analyzed completed here too.
    EXPECT_EQ(tight.records.size(), baseline.records.size());
    EXPECT_EQ(tight.stats.memory.budget_bytes, 64ull << 10);
    EXPECT_GT(tight.stats.memory.peak_tracked_bytes, 0u);
    EXPECT_LE(static_cast<double>(tight.stats.memory.peak_tracked_bytes),
              bound);

    const Captured unobserved = RunWith(
        g, budgeted, decomp::ExecutorKind::kPooled, threads, /*observe=*/false);
    EXPECT_TRUE(unobserved.records.empty());
    EXPECT_EQ(unobserved.emissions, tight.emissions);
    EXPECT_EQ(unobserved.stats.cliques_emitted, tight.stats.cliques_emitted);
    EXPECT_GT(unobserved.stats.memory.peak_tracked_bytes, 0u);
    EXPECT_LE(static_cast<double>(unobserved.stats.memory.peak_tracked_bytes),
              bound);
  }
}

// An exhausted budget turns every pooled run into the serial walk: at a
// 1-byte budget every block's charge would cross it, so each block is
// analyzed on its decompose worker (one admission stall per block) and
// the tracked peak stays near the serial run's, whatever the pool size.
TEST(MemoryBudgetTest, ExhaustedBudgetAnalyzesEveryBlockInline) {
  const Graph g = gen::GenerateSocialNetwork(gen::FacebookConfig(0.02));
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 40;
  options.memory_budget_bytes = 1;
  options.spill_dir = testing::TempDir();
  const Captured serial = RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
  ASSERT_GT(serial.stats.memory.peak_tracked_bytes, 0u);
  for (uint32_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    const Captured pooled =
        RunWith(g, options, decomp::ExecutorKind::kPooled, threads);
    ExpectIdenticalEmission(pooled, serial);
    uint64_t blocks = 0;
    for (const decomp::LevelStats& level : pooled.stats.levels) {
      blocks += level.blocks;
    }
    ASSERT_GT(blocks, 0u);
    EXPECT_EQ(pooled.stats.memory.admission_stalls, blocks);
    EXPECT_LE(static_cast<double>(pooled.stats.memory.peak_tracked_bytes),
              1.25 * static_cast<double>(
                         serial.stats.memory.peak_tracked_bytes));
  }
}

// A queued block is charged only what it holds: its materialized block,
// from emission until its task ends. The analysis workspace belongs to the
// worker and is charged only while a task runs. With one pool worker and
// no budget, every level-0 block queues behind its DecomposeTask. So the
// tracked peak stays within the serial run's peak (the pipeline graph and
// one block with its workspace) plus every block once at its record's
// bytes, the deeper level graphs and the buffered survivors.
TEST(MemoryBudgetTest, QueuedBlocksAreChargedWithoutWorkspaces) {
  const Graph g = gen::GenerateSocialNetwork(gen::FacebookConfig(0.02));
  const uint32_t m = 40;
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = m;
  const Captured serial = RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
  const Captured pooled = RunWith(g, options, decomp::ExecutorKind::kPooled, 1);
  ExpectIdenticalEmission(pooled, serial);

  uint64_t bound = serial.stats.memory.peak_tracked_bytes;
  for (const decomp::BlockTaskRecord& r : pooled.records) bound += r.bytes;
  // Levels >= 1 own their hub-induced graphs, all alive at once at worst.
  Graph level = g;
  for (std::vector<NodeId> hubs = decomp::Cut(level, m).hubs; !hubs.empty();
       hubs = decomp::Cut(level, m).hubs) {
    level = Induce(level, hubs).graph;
    bound += level.ResidentBytes();
  }
  // Each survivor waits in its block's sink until delivery.
  for (const auto& [clique, origin] : pooled.emissions) {
    bound += clique.size() * sizeof(NodeId) + sizeof(uint64_t);
  }
  EXPECT_LE(pooled.stats.memory.peak_tracked_bytes, bound);
}

// Serial runs honor the budget bookkeeping too: peak tracked bytes are
// reported, and the block-at-a-time profile stays within any budget that
// admits the largest single block.
TEST(MemoryBudgetTest, SerialRunReportsPeakTrackedBytes) {
  Rng rng(77);
  const Graph g = gen::BarabasiAlbert(80, 4, &rng);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 10;
  options.memory_budget_bytes = 1ull << 30;
  const Captured run = RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
  EXPECT_EQ(run.stats.memory.budget_bytes, 1ull << 30);
  EXPECT_GT(run.stats.memory.peak_tracked_bytes, 0u);
  EXPECT_LE(run.stats.memory.peak_tracked_bytes, options.memory_budget_bytes);
}

// Trace/metrics contract (mirrors the span-math checks in exec_trace_test):
// every spill flush is one kSpillFlush span whose byte argument sums to the
// run's spill_bytes, every admission stall is one kAdmission span, and the
// mem.* registry counters and the final progress spill counters agree with
// the run's MemoryStats.
TEST(SpillObservabilityTest, SpillSpansAndCountersMatchRunStats) {
  const Graph g = gen::GenerateSocialNetwork(gen::FacebookConfig(0.02));
  obs::TraceRecorder recorder;
  obs::MetricsRegistry registry;
  obs::ProgressEstimator progress;
  decomp::FindMaxCliquesOptions options = SpillForced(40);
  options.memory_budget_bytes = 64ull << 10;
  options.executor = decomp::ExecutorKind::kPooled;
  options.num_threads = 4;
  options.trace = &recorder;
  options.metrics = &registry;
  options.progress = &progress;
  Captured out;
  out.stats = decomp::FindMaxCliquesStreaming(
      g, options, [](std::span<const NodeId>, uint32_t) {});
  const decomp::MemoryStats& mem = out.stats.memory;
  ASSERT_GT(mem.spill_chunks, 0u);
  ASSERT_GT(mem.spill_bytes, 0u);
  // A budget this tight keeps blocks off the pool, so the admission
  // instruments are exercised too.
  ASSERT_GT(mem.admission_stalls, 0u);

  uint64_t flush_spans = 0, flush_bytes = 0, admission_spans = 0;
  for (const obs::TraceEvent& e : recorder.Events()) {
    if (e.kind == obs::SpanKind::kSpillFlush) {
      ++flush_spans;
      flush_bytes += e.args[1];
    }
    if (e.kind == obs::SpanKind::kAdmission) ++admission_spans;
  }
  EXPECT_EQ(flush_spans, mem.spill_chunks);
  EXPECT_EQ(flush_bytes, mem.spill_bytes);
  EXPECT_EQ(admission_spans, mem.admission_stalls);

  EXPECT_EQ(registry.GetCounter("mem.spill_chunks").value(), mem.spill_chunks);
  EXPECT_EQ(registry.GetCounter("mem.spill_bytes").value(), mem.spill_bytes);
  EXPECT_EQ(registry.GetCounter("mem.admission_stalls").value(),
            mem.admission_stalls);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(
          registry.GetCounter("mem.admission_stall_micros").value()) *
          1e-6,
      mem.admission_stall_seconds);
  EXPECT_GT(registry.GetCounter("mem.bytes_charged").value(), 0u);

  const obs::ProgressSnapshot final_snapshot = progress.TakeSnapshot();
  EXPECT_TRUE(final_snapshot.complete);
  EXPECT_EQ(final_snapshot.spill_chunks, mem.spill_chunks);
  EXPECT_EQ(final_snapshot.spill_bytes, mem.spill_bytes);
}

// The final heartbeat is sampled after the engine's Run returns, so the
// gauges a finished run leaves behind must be its own totals: the tracked
// peak of its MemoryStats, with every charge released. The unbudgeted
// pooled run's sinks cannot spill and charge per minimum chunk, settling
// the rest when their tasks end.
TEST(SpillObservabilityTest, FinalGaugesReportTheFinishedRunsMemory) {
  const Graph g = gen::GenerateSocialNetwork(gen::FacebookConfig(0.02));
  for (const auto& [kind, threads, budgeted] :
       {std::tuple{decomp::ExecutorKind::kSerial, 1u, true},
        std::tuple{decomp::ExecutorKind::kPooled, 4u, true},
        std::tuple{decomp::ExecutorKind::kPooled, 4u, false}}) {
    SCOPED_TRACE(testing::Message()
                 << "threads " << threads << " budgeted " << budgeted);
    obs::ProgressEstimator progress;
    decomp::FindMaxCliquesOptions options;
    options.max_block_size = 40;
    if (budgeted) {
      options = SpillForced(40);
      options.memory_budget_bytes = 64ull << 10;
    }
    options.executor = kind;
    options.num_threads = threads;
    options.progress = &progress;
    const decomp::StreamingStats stats = decomp::FindMaxCliquesStreaming(
        g, options, [](std::span<const NodeId>, uint32_t) {});
    ASSERT_GT(stats.memory.peak_tracked_bytes, 0u);
    const obs::GaugeSample gauges = progress.TakeSnapshot().gauges;
    EXPECT_EQ(gauges.mem_peak_bytes, stats.memory.peak_tracked_bytes);
    EXPECT_EQ(gauges.mem_charged_bytes, 0u);
    EXPECT_EQ(gauges.queue_depth, 0u);
  }
}

// A resident (no-spill, no-budget) run records none of the spill
// instruments — the out-of-core machinery costs nothing when off.
TEST(SpillObservabilityTest, ResidentRunRecordsNoSpillActivity) {
  Rng rng(13);
  const Graph g = gen::ErdosRenyiGnp(40, 0.2, &rng);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 8;
  options.executor = decomp::ExecutorKind::kPooled;
  options.num_threads = 4;
  Captured out;
  out.stats = decomp::FindMaxCliquesStreaming(
      g, options, [](std::span<const NodeId>, uint32_t) {});
  EXPECT_EQ(out.stats.memory.spill_chunks, 0u);
  EXPECT_EQ(out.stats.memory.spill_bytes, 0u);
  EXPECT_EQ(out.stats.memory.admission_stalls, 0u);
  EXPECT_EQ(out.stats.memory.budget_bytes, 0u);
}

}  // namespace
}  // namespace mce::exec
