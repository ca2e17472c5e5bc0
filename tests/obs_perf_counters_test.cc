// Per-thread counter plumbing: delta arithmetic, the Begin/Finish window,
// and the accumulator invariant the --json "profile" object relies on —
// per-kind and per-level buckets only ever receive what the total
// receives, so their sums reproduce the total exactly.

#include "obs/perf_counters.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "obs/critical_path.h"
#include "obs/trace.h"

namespace mce::obs {
namespace {

CounterDelta MakeDelta(uint64_t cycles, uint64_t instructions,
                       uint64_t clock_ns,
                       CounterSource source = CounterSource::kSoftware) {
  CounterDelta d;
  d.cycles = cycles;
  d.instructions = instructions;
  d.cache_misses = cycles / 10;
  d.branch_misses = cycles / 100;
  d.task_clock_ns = clock_ns;
  d.source = source;
  return d;
}

/// A task span of `micros` window length, as ProfileAccumulator::Add
/// receives it.
TaskSpan MakeSpan(SpanKind kind, uint32_t level, int64_t micros,
                  uint64_t cliques, const CounterDelta& delta) {
  TaskSpan s;
  s.kind = kind;
  s.level = level;
  s.end_us = micros;
  s.cliques = cliques;
  s.prof = delta;
  return s;
}

TEST(CounterDeltaTest, AccumulateSumsFieldsAndPromotesSource) {
  CounterDelta sum;
  EXPECT_EQ(sum.source, CounterSource::kNone);
  sum += MakeDelta(100, 200, 50, CounterSource::kSoftware);
  EXPECT_EQ(sum.cycles, 100u);
  EXPECT_EQ(sum.instructions, 200u);
  EXPECT_EQ(sum.source, CounterSource::kSoftware);  // kNone adopts
  sum += MakeDelta(10, 20, 5, CounterSource::kHardware);
  EXPECT_EQ(sum.cycles, 110u);
  EXPECT_EQ(sum.instructions, 220u);
  EXPECT_EQ(sum.task_clock_ns, 55u);
  // Any hardware contribution marks the aggregate as hardware-backed.
  EXPECT_EQ(sum.source, CounterSource::kHardware);
  sum += MakeDelta(1, 1, 1, CounterSource::kSoftware);
  EXPECT_EQ(sum.source, CounterSource::kHardware);
}

TEST(CounterDeltaTest, SaturatingSubtractClampsAtZero) {
  CounterDelta parent = MakeDelta(1000, 500, 300);
  CounterDelta children = MakeDelta(400, 100, 80);
  parent.SaturatingSubtract(children);
  EXPECT_EQ(parent.cycles, 600u);
  EXPECT_EQ(parent.instructions, 400u);
  EXPECT_EQ(parent.task_clock_ns, 220u);
  EXPECT_EQ(parent.source, CounterSource::kSoftware);  // kept

  // Children can over-count the parent window (multiplex scaling jitter);
  // self time must clamp to zero instead of wrapping.
  CounterDelta small = MakeDelta(10, 10, 10);
  small.SaturatingSubtract(MakeDelta(1000, 1000, 1000));
  EXPECT_EQ(small.cycles, 0u);
  EXPECT_EQ(small.instructions, 0u);
  EXPECT_EQ(small.task_clock_ns, 0u);
}

TEST(ScopedCountersTest, WindowMeasuresBusyWork) {
  ScopedCounters sc;
  EXPECT_FALSE(sc.active());
  sc.Begin();
  EXPECT_TRUE(sc.active());
  // Burn enough CPU that CLOCK_THREAD_CPUTIME_ID must advance even at
  // coarse clock granularity.
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 20'000'000; ++i) sink = sink + i * i;
  const CounterDelta d = sc.Finish();
  EXPECT_FALSE(sc.active());
  EXPECT_GT(d.task_clock_ns, 0u);
  if (PerfCounterSet::HardwareAvailable()) {
    EXPECT_EQ(d.source, CounterSource::kHardware);
    EXPECT_GT(d.cycles, 0u);
    EXPECT_GT(d.instructions, 0u);
  } else {
    // Container / seccomp degradation: only the software clock, and the
    // hardware fields stay zero rather than reporting garbage.
    EXPECT_EQ(d.source, CounterSource::kSoftware);
    EXPECT_EQ(d.cycles, 0u);
    EXPECT_EQ(d.instructions, 0u);
  }
}

TEST(ScopedCountersTest, HardwareProbeIsStable) {
  const bool first = PerfCounterSet::HardwareAvailable();
  EXPECT_EQ(PerfCounterSet::HardwareAvailable(), first);  // cached probe
  EXPECT_EQ(PerfCounterSet::ForCurrentThread().hardware(), first);
}

TEST(ProfileBucketTest, DerivedMetricsGuardZeroDenominators) {
  ProfileBucket b;
  EXPECT_EQ(b.Ipc(), 0.0);
  EXPECT_EQ(b.NsPerClique(), 0.0);
  b.counters = MakeDelta(1000, 2500, 4000);
  b.cliques = 8;
  EXPECT_DOUBLE_EQ(b.Ipc(), 2.5);
  EXPECT_DOUBLE_EQ(b.NsPerClique(), 500.0);
}

TEST(ProfileAccumulatorTest, BucketSumsReproduceTheTotalExactly) {
  ProfileAccumulator acc;
  // A miniature run: reduce prepass (no level), two decompose levels,
  // blocks on both, a fallback on level 0.
  acc.Add(MakeSpan(SpanKind::kReduce, 0, 10'000, 2,
                   MakeDelta(500, 900, 10'000'000)));
  acc.Add(MakeSpan(SpanKind::kDecompose, 0, 20'000, 0,
                   MakeDelta(100, 150, 20'000'000)));
  acc.Add(MakeSpan(SpanKind::kBlock, 0, 30'000, 5,
                   MakeDelta(300, 600, 30'000'000)));
  acc.Add(MakeSpan(SpanKind::kBlock, 0, 40'000, 7,
                   MakeDelta(400, 800, 40'000'000)));
  acc.Add(MakeSpan(SpanKind::kFallback, 0, 5'000, 3,
                   MakeDelta(50, 60, 5'000'000)));
  acc.Add(MakeSpan(SpanKind::kDecompose, 1, 15'000, 0,
                   MakeDelta(80, 90, 15'000'000)));
  acc.Add(MakeSpan(SpanKind::kBlock, 1, 25'000, 11,
                   MakeDelta(200, 220, 25'000'000)));

  const ProfileStats stats = acc.Snapshot();
  EXPECT_TRUE(stats.enabled);
  EXPECT_FALSE(stats.hardware);  // every delta above is software-sourced
  EXPECT_EQ(stats.total.spans, 7u);
  EXPECT_EQ(stats.total.cliques, 2u + 5 + 7 + 3 + 11);
  EXPECT_DOUBLE_EQ(stats.total.seconds, 0.145);

  // by_kind partitions the total.
  ProfileBucket kind_sum;
  for (const auto& [kind, bucket] : stats.by_kind) {
    (void)kind;
    kind_sum.spans += bucket.spans;
    kind_sum.seconds += bucket.seconds;
    kind_sum.cliques += bucket.cliques;
    kind_sum.counters += bucket.counters;
  }
  EXPECT_EQ(kind_sum.spans, stats.total.spans);
  EXPECT_EQ(kind_sum.cliques, stats.total.cliques);
  EXPECT_DOUBLE_EQ(kind_sum.seconds, stats.total.seconds);
  EXPECT_EQ(kind_sum.counters.cycles, stats.total.counters.cycles);
  EXPECT_EQ(kind_sum.counters.instructions,
            stats.total.counters.instructions);
  EXPECT_EQ(kind_sum.counters.task_clock_ns,
            stats.total.counters.task_clock_ns);

  // by_level partitions everything except the reduce span, which runs
  // outside the recursion.
  ASSERT_EQ(stats.by_level.size(), 2u);
  ProfileBucket level_sum;
  for (const ProfileBucket& bucket : stats.by_level) {
    level_sum.spans += bucket.spans;
    level_sum.cliques += bucket.cliques;
    level_sum.counters += bucket.counters;
  }
  EXPECT_EQ(level_sum.spans, stats.total.spans - 1);
  EXPECT_EQ(level_sum.cliques, stats.total.cliques - 2);
  EXPECT_EQ(level_sum.counters.cycles, stats.total.counters.cycles - 500);
  EXPECT_EQ(level_sum.counters.task_clock_ns,
            stats.total.counters.task_clock_ns - 10'000'000);

  // A hardware delta anywhere flips the run-level flag.
  acc.Add(MakeSpan(SpanKind::kBlock, 0, 1'000, 0,
                   MakeDelta(10, 10, 1000, CounterSource::kHardware)));
  EXPECT_TRUE(acc.Snapshot().hardware);

  // The human-readable summary mentions the source and span count.
  const std::string text = acc.Snapshot().ToString();
  EXPECT_NE(text.find("spans"), std::string::npos) << text;
}

}  // namespace
}  // namespace mce::obs
