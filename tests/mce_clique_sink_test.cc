// CliqueSink: spilled replay identity and budget accounting.
// Plus the saturating storage estimates the MemoryBudget charges are built
// from.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mce/clique_sink.h"
#include "mce/storage.h"
#include "obs/trace.h"
#include "util/memory_budget.h"

namespace mce {
namespace {

/// Deterministic pseudo-random clique stream (no RNG dependency).
std::vector<std::vector<NodeId>> TestCliques(size_t count) {
  std::vector<std::vector<NodeId>> out;
  out.reserve(count);
  uint64_t state = 12345;
  for (size_t i = 0; i < count; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const size_t len = 1 + (state >> 33) % 7;
    std::vector<NodeId> c;
    for (size_t j = 0; j < len; ++j) {
      c.push_back(static_cast<NodeId>((i * 31 + j * 7 + (state & 0xff))));
    }
    out.push_back(std::move(c));
  }
  return out;
}

/// Sums the bytes of the kSpillFlush spans a sink hands to its config.
struct FlushLog {
  uint64_t chunks = 0;
  uint64_t bytes = 0;
  std::function<void(const obs::TraceEvent&)> Recorder() {
    return [this](const obs::TraceEvent& e) {
      EXPECT_EQ(e.kind, obs::SpanKind::kSpillFlush);
      EXPECT_EQ(e.index, chunks);
      ++chunks;
      bytes += e.args[1];
    };
  }
};

std::vector<std::vector<NodeId>> Replay(const CliqueSink& sink) {
  std::vector<std::vector<NodeId>> got;
  sink.ForEach([&](std::span<const NodeId> c) {
    got.emplace_back(c.begin(), c.end());
  });
  return got;
}

// Replay after many flushes yields exactly the appended stream: the
// spilled chunks in order, then the resident tail. Each flush hands one
// span, numbered by chunk, to the config's callback.
TEST(CliqueSinkTest, SpilledReplayIsIdenticalToResident) {
  const auto cliques = TestCliques(500);

  MemoryBudget budget;
  FlushLog flushes;
  SpillConfig config;
  config.threshold_bytes = 256;  // forces many flushes
  config.budget = &budget;
  config.record_flush = flushes.Recorder();
  SpillContext ctx;
  ctx.config = &config;
  CliqueSink spilling(&ctx);
  for (const auto& c : cliques) spilling.AppendRaw(c);

  ASSERT_EQ(spilling.size(), cliques.size());
  EXPECT_GT(flushes.chunks, 1u);
  EXPECT_GT(flushes.bytes, 0u);
  EXPECT_EQ(Replay(spilling), cliques);
}

TEST(CliqueSinkTest, AccountingReleasesOnFlushAndDestruction) {
  MemoryBudget budget;
  FlushLog flushes;
  SpillConfig config;
  config.threshold_bytes = 128;
  config.budget = &budget;
  config.record_flush = flushes.Recorder();
  SpillContext ctx;
  ctx.config = &config;
  {
    CliqueSink sink(&ctx);
    const auto cliques = TestCliques(300);
    for (const auto& c : cliques) sink.AppendRaw(c);
    // Flushes released the spilled bytes: the residual charge is at most
    // one buffered (unflushed) tail, far below the total appended.
    EXPECT_GT(flushes.bytes, budget.charged());
  }
  // Destruction releases the tail charge from budget and level counter.
  EXPECT_EQ(budget.charged(), 0u);
  EXPECT_EQ(ctx.resident_bytes.load(), 0u);
  EXPECT_GT(budget.peak(), 0u);
}

// Without a threshold nothing can flush, so a sink charges its growth
// once per kMinSpillChunkBytes: between appends the budget and the level
// counter trail the payload by less than that, Settle() charges the rest,
// every byte is charged exactly once, and destruction returns both to 0.
TEST(CliqueSinkTest, WithoutThresholdChargesPerMinimumChunkAndOnSettle) {
  const auto cliques = TestCliques(2000);
  MemoryBudget budget;
  SpillConfig config;
  config.budget = &budget;
  SpillContext ctx;
  ctx.config = &config;
  FlatCliques payload;
  {
    CliqueSink sink(&ctx);
    uint64_t deferred = 0;
    for (const auto& c : cliques) {
      sink.AppendRaw(c);
      payload.AppendRaw(c);
      ASSERT_LE(budget.charged(), payload.ByteSize());
      EXPECT_LT(payload.ByteSize() - budget.charged(), kMinSpillChunkBytes);
      EXPECT_EQ(ctx.resident_bytes.load(), budget.charged());
      deferred += budget.charged() < payload.ByteSize() ? 1 : 0;
    }
    EXPECT_GT(deferred, cliques.size() / 2);
    sink.Settle();
    EXPECT_EQ(budget.charged(), payload.ByteSize());
    EXPECT_EQ(ctx.resident_bytes.load(), payload.ByteSize());
    sink.Settle();  // nothing left to charge
    EXPECT_EQ(budget.total_charged(), payload.ByteSize());
    EXPECT_EQ(budget.peak(), payload.ByteSize());
    EXPECT_EQ(Replay(sink), cliques);
  }
  EXPECT_EQ(budget.charged(), 0u);
  EXPECT_EQ(ctx.resident_bytes.load(), 0u);
}

// A level that can spill still charges every append: with a threshold
// the run never reaches, the budget holds the whole payload after each one.
TEST(CliqueSinkTest, WithThresholdChargesEveryAppend) {
  const auto cliques = TestCliques(300);
  MemoryBudget budget;
  SpillConfig config;
  config.threshold_bytes = 1ull << 20;
  config.budget = &budget;
  SpillContext ctx;
  ctx.config = &config;
  FlatCliques payload;
  CliqueSink sink(&ctx);
  for (const auto& c : cliques) {
    sink.AppendRaw(c);
    payload.AppendRaw(c);
    ASSERT_EQ(budget.charged(), payload.ByteSize());
    ASSERT_EQ(ctx.resident_bytes.load(), payload.ByteSize());
  }
  sink.Settle();
  EXPECT_EQ(budget.total_charged(), payload.ByteSize());
}

TEST(CliqueSinkTest, EmptyCliquesSurviveSpilling) {
  MemoryBudget budget;
  SpillConfig config;
  config.threshold_bytes = 64;
  config.budget = &budget;
  SpillContext ctx;
  ctx.config = &config;
  CliqueSink sink(&ctx);
  const std::vector<NodeId> empty;
  const std::vector<NodeId> one = {42};
  for (int i = 0; i < 40; ++i) {
    sink.AppendRaw(empty);
    sink.AppendRaw(one);
  }
  ASSERT_EQ(sink.size(), 80u);
  const auto got = Replay(sink);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], (i % 2 == 0 ? empty : one)) << i;
  }
}

// --- Saturating storage estimates (uint64 end-to-end, satellite of the
// out-of-core work: budget math must clamp instead of wrapping). ---

TEST(StorageEstimateTest, SaturatingOpsClampAtMax) {
  EXPECT_EQ(SaturatingAdd(1, 2), 3u);
  EXPECT_EQ(SaturatingAdd(UINT64_MAX, 1), UINT64_MAX);
  EXPECT_EQ(SaturatingAdd(UINT64_MAX, UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(SaturatingMul(3, 7), 21u);
  EXPECT_EQ(SaturatingMul(UINT64_MAX, 2), UINT64_MAX);
  EXPECT_EQ(SaturatingMul(1ull << 40, 1ull << 40), UINT64_MAX);
  EXPECT_EQ(SaturatingMul(0, UINT64_MAX), 0u);
}

TEST(StorageEstimateTest, EstimateStorageBytesMatchesSmallGraphMath) {
  // Adjacency list: 2m neighbor ids (4 bytes) + n+1 offsets (8 bytes).
  EXPECT_EQ(EstimateStorageBytes(10, 20, StorageKind::kAdjacencyList),
            2 * 20 * 4 + 11 * 8u);
  // Matrix: n^2 bytes.
  EXPECT_EQ(EstimateStorageBytes(100, 0, StorageKind::kMatrix),
            100u * 100u);
  // Bitset: n rows of ceil(n/64) words.
  EXPECT_EQ(EstimateStorageBytes(100, 0, StorageKind::kBitset),
            100u * 2u * 8u);
}

TEST(StorageEstimateTest, HugeGraphEstimatesClampInsteadOfWrapping) {
  const uint64_t huge = 1ull << 40;
  EXPECT_EQ(EstimateStorageBytes(huge, huge, StorageKind::kMatrix),
            UINT64_MAX);
  EXPECT_EQ(EstimateStorageBytes(huge, huge, StorageKind::kBitset),
            UINT64_MAX);
  // The list estimate at 2^40 nodes/edges is large but representable; it
  // must be the exact unsaturated value, not a clamp.
  EXPECT_EQ(EstimateStorageBytes(huge, huge, StorageKind::kAdjacencyList),
            2 * huge * 4 + (huge + 1) * 8);
}

}  // namespace
}  // namespace mce
