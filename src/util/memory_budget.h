// MemoryBudget — lock-free byte accounting for the execution engine.
//
// The budget tracks the bytes the pipeline has deliberately materialized:
// the pipeline graph's resident CSR, per-level induced subgraphs, block
// subgraphs, MCE analysis workspaces, and clique-sink buffers. Charges and
// releases are relaxed atomics (sub-nanosecond on the hot path); `peak()`
// is maintained with a CAS loop so the run's MemoryStats can report the
// high-water mark even on unlimited runs, and `total_charged()` sums every
// charge ever made (the run's mem.bytes_charged).
//
// A limit of 0 means "track only, never constrain". With a limit set,
// `WouldExceed()` answers the PooledExecutor's one budget question, asked
// when a block is emitted: would charging the block and its analysis
// workspace push the tracked total past the budget? The budget itself
// never blocks or refuses a charge — the executor decides what to do with
// the answer (it analyzes such a block on the emitting worker instead of
// dispatching it).

#ifndef MCE_UTIL_MEMORY_BUDGET_H_
#define MCE_UTIL_MEMORY_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace mce {

class MemoryBudget {
 public:
  /// `limit_bytes` of 0 disables the constraint (tracking still runs).
  explicit MemoryBudget(uint64_t limit_bytes = 0) : limit_(limit_bytes) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  uint64_t limit() const { return limit_; }

  void Charge(uint64_t bytes) {
    if (bytes == 0) return;
    const uint64_t now =
        charged_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    total_.fetch_add(bytes, std::memory_order_relaxed);
    uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now,
                                        std::memory_order_relaxed)) {
    }
  }

  void Release(uint64_t bytes) {
    if (bytes == 0) return;
    charged_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Whether charging `bytes` more would push the total past the limit.
  /// Always false when unlimited. Advisory: the check and the charge are
  /// not atomic, so charges from other threads (another level's emitting
  /// worker, a growing clique sink) may still land past the limit.
  bool WouldExceed(uint64_t bytes) const {
    return limit_ > 0 &&
           charged_.load(std::memory_order_relaxed) + bytes > limit_;
  }

  uint64_t charged() const { return charged_.load(std::memory_order_relaxed); }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t total_charged() const {
    return total_.load(std::memory_order_relaxed);
  }

 private:
  const uint64_t limit_;
  std::atomic<uint64_t> charged_{0};
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> peak_{0};
};

/// Parses a human byte size: a non-negative integer with an optional
/// K/M/G/T suffix (case-insensitive, binary multiples, optional trailing
/// "B" or "iB" — "64K", "16MiB", "2g", "4096"). InvalidArgument on
/// malformed input, OutOfRange when the product overflows uint64.
Result<uint64_t> ParseByteSize(const std::string& text);

}  // namespace mce

#endif  // MCE_UTIL_MEMORY_BUDGET_H_
