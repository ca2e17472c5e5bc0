// MemoryBudget charge/release/peak semantics and ParseByteSize.

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/memory_budget.h"
#include "util/status.h"

namespace mce {
namespace {

TEST(MemoryBudgetTest, UnlimitedNeverExceeds) {
  MemoryBudget budget;  // limit 0 = unlimited
  budget.Charge(1ull << 40);
  EXPECT_FALSE(budget.WouldExceed(1ull << 40));
  EXPECT_EQ(budget.charged(), 1ull << 40);
}

TEST(MemoryBudgetTest, ChargeReleaseAndPeak) {
  MemoryBudget budget(1000);
  budget.Charge(600);
  EXPECT_FALSE(budget.WouldExceed(400));
  EXPECT_TRUE(budget.WouldExceed(401));
  budget.Charge(300);
  budget.Release(700);
  EXPECT_EQ(budget.charged(), 200u);
  // Peak is the high-water mark, not the current value; the total counts
  // every charge, released or not.
  EXPECT_EQ(budget.peak(), 900u);
  EXPECT_EQ(budget.total_charged(), 900u);
  EXPECT_EQ(budget.limit(), 1000u);
}

TEST(MemoryBudgetTest, PeakIsRaceFreeUnderConcurrentCharges) {
  MemoryBudget budget(0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&budget] {
      for (int i = 0; i < 1000; ++i) {
        budget.Charge(3);
        budget.Release(3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(budget.charged(), 0u);
  EXPECT_GE(budget.peak(), 3u);
  EXPECT_LE(budget.peak(), 12u);
}

TEST(ParseByteSizeTest, PlainAndSuffixedValues) {
  EXPECT_EQ(*ParseByteSize("0"), 0u);
  EXPECT_EQ(*ParseByteSize("12345"), 12345u);
  EXPECT_EQ(*ParseByteSize("64k"), 64u << 10);
  EXPECT_EQ(*ParseByteSize("64K"), 64u << 10);
  EXPECT_EQ(*ParseByteSize("64KB"), 64u << 10);
  EXPECT_EQ(*ParseByteSize("64KiB"), 64u << 10);
  EXPECT_EQ(*ParseByteSize("2m"), 2ull << 20);
  EXPECT_EQ(*ParseByteSize("3G"), 3ull << 30);
  EXPECT_EQ(*ParseByteSize("1T"), 1ull << 40);
  EXPECT_EQ(*ParseByteSize("512b"), 512u);
}

TEST(ParseByteSizeTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseByteSize("").ok());
  EXPECT_FALSE(ParseByteSize("abc").ok());
  EXPECT_FALSE(ParseByteSize("12Q").ok());
  EXPECT_FALSE(ParseByteSize("12kk").ok());
  EXPECT_FALSE(ParseByteSize("-5").ok());
  EXPECT_FALSE(ParseByteSize("1.5G").ok());
}

TEST(ParseByteSizeTest, OverflowIsOutOfRange) {
  Result<uint64_t> r = ParseByteSize("99999999999999999999");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  // 2^64 bytes expressed via suffix shift.
  Result<uint64_t> shifted = ParseByteSize("16777216T");
  ASSERT_FALSE(shifted.ok());
  EXPECT_EQ(shifted.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace mce
