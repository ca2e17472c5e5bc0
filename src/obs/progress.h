// ProgressEstimator — live work accounting for a FindMaxCliques run.
//
// The denominator problem: the pipeline does not know its total work up
// front. Blocks are discovered level by level, so any progress number
// must stay honest while the denominator grows. The estimator treats
// decision::EstimateBlockCost units as the work currency: decompose
// registers a block's predicted cost the moment the block is emitted,
// and the block's completion retires it. The completed fraction is
// reported as a high-water mark, so it is monotone non-decreasing even
// when a new level suddenly inflates the denominator, and the ETA comes
// from an EWMA of cost-throughput rather than the raw fraction (a run
// that is 90% done by block count may have its one monster block left).
//
// Thread model: RegisterBlock/RetireBlock take a mutex (once per block —
// cheap next to analysing the block); AddCliques/AddSpillChunk are
// lock-free atomics, safe on the per-clique hot path.
// TakeSnapshot is called from the TelemetrySampler thread concurrently
// with all of the above. Executors install a gauge-source callback for
// run-scoped readings (queue depth, memory budget) and must clear it
// before the gauges die; ClearGaugeSource takes the source's last sample
// and blocks until any in-flight snapshot has finished with the callback.
//
// Layering: obs/ knows nothing about graphs or executors. The bridge is
// FindMaxCliquesOptions::progress, filled by whoever owns the run.

#ifndef MCE_OBS_PROGRESS_H_
#define MCE_OBS_PROGRESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

namespace mce::obs {

/// Point-in-time readings sampled from the running engine (thread-pool
/// queue depth, memory budget). Produced by the gauge-source callback.
struct GaugeSample {
  uint64_t queue_depth = 0;
  uint64_t mem_charged_bytes = 0;
  uint64_t mem_peak_bytes = 0;
};

/// Per-level block counts as of a snapshot.
struct LevelProgress {
  uint32_t level = 0;
  uint64_t blocks = 0;
  uint64_t blocks_done = 0;
};

/// One heartbeat's worth of state, taken atomically enough for the
/// monotonicity contract: `completed_cost` and `fraction` never decrease
/// across successive snapshots, and `fraction` reaches exactly 1.0 once
/// MarkComplete has run.
struct ProgressSnapshot {
  uint64_t seq = 0;
  double elapsed_seconds = 0;
  double registered_cost = 0;
  double completed_cost = 0;
  double fraction = 0;        // high-water completed/registered, in [0,1]
  double throughput = 0;      // EWMA cost units per second (0 = unknown)
  double eta_seconds = -1;    // remaining/throughput; -1 when unknown
  uint64_t cliques = 0;
  uint64_t blocks = 0;
  uint64_t blocks_done = 0;
  uint64_t spill_chunks = 0;
  uint64_t spill_bytes = 0;
  uint32_t levels_started = 0;
  uint32_t levels_finished = 0;
  bool complete = false;
  std::vector<LevelProgress> levels;
  GaugeSample gauges;
};

/// Final run accounting, surfaced through the run result and --json: how
/// much work the cost model predicted, how much was retired, and how good
/// the live ETAs were against the wall clock that actually happened.
struct ProgressAccounting {
  bool enabled = false;
  double predicted_cost = 0;   // total registered EstimateBlockCost units
  double completed_cost = 0;   // total retired units (== predicted when done)
  uint64_t blocks = 0;
  uint64_t cliques = 0;
  uint64_t samples = 0;        // snapshots that carried an ETA
  /// mean |t + eta(t) - wall| over those samples; 0 when samples == 0.
  double mean_abs_eta_error_seconds = 0;
  double wall_seconds = 0;
};

class ProgressEstimator {
 public:
  ProgressEstimator();

  /// Decompose emitted a block at `level` with predicted `cost` units.
  void RegisterBlock(uint32_t level, double cost);

  /// A block (or the fallback) at `level` finished: retires its `units`,
  /// the cost it was registered with, and counts the block done.
  void RetireBlock(uint32_t level, double units);

  void AddCliques(uint64_t n);
  void AddSpillChunk(uint64_t bytes);

  void BeginLevel(uint32_t level);
  void FinishLevel(uint32_t level);

  /// The run finished (success or not). Idempotent. Freezes the fraction
  /// at 1.0 and records the wall time used for ETA-error accounting.
  void MarkComplete();
  bool complete() const {
    return complete_.load(std::memory_order_acquire);
  }

  /// Installs/clears the engine's gauge callback. ClearGaugeSource
  /// samples the callback once more, and every later snapshot reports that
  /// sample (the finished run's memory in the final heartbeat). It
  /// serializes against TakeSnapshot, so once it returns no snapshot is
  /// still inside the callback.
  void SetGaugeSource(std::function<GaugeSample()> fn);
  void ClearGaugeSource();

  /// Called by the sampler thread; advances the EWMA and the high-water
  /// fraction, and appends an ETA sample for final error accounting.
  ProgressSnapshot TakeSnapshot();

  ProgressAccounting Accounting() const;

  double registered_cost() const {
    return registered_cost_.load(std::memory_order_relaxed);
  }
  double completed_cost() const {
    return completed_cost_.load(std::memory_order_relaxed);
  }
  uint64_t cliques() const {
    return cliques_.load(std::memory_order_relaxed);
  }

 private:
  struct LevelCounters {
    uint64_t blocks = 0;
    uint64_t blocks_done = 0;
    bool started = false;
    bool finished = false;
  };
  struct EtaSample {
    double elapsed_seconds = 0;
    double eta_seconds = 0;
  };

  double ElapsedSeconds() const;
  LevelCounters& LevelAt(uint32_t level);  // mu_ held

  // Hot-path counters: fetch_add of non-negative deltas only, so each is
  // monotone without the mutex.
  std::atomic<double> registered_cost_{0};
  std::atomic<double> completed_cost_{0};
  std::atomic<uint64_t> cliques_{0};
  std::atomic<uint64_t> spill_chunks_{0};
  std::atomic<uint64_t> spill_bytes_{0};
  std::atomic<bool> complete_{false};

  mutable std::mutex mu_;
  std::vector<LevelCounters> levels_;  // indexed by level
  uint64_t blocks_ = 0;
  uint64_t blocks_done_ = 0;
  std::function<GaugeSample()> gauge_source_;
  GaugeSample last_gauges_;  // the source's sample at ClearGaugeSource

  // Sampler state (only touched under mu_; single sampler expected but
  // not required).
  uint64_t seq_ = 0;
  double fraction_hwm_ = 0;
  double ewma_throughput_ = 0;
  double last_elapsed_ = 0;
  double last_completed_ = 0;
  std::vector<EtaSample> eta_samples_;
  double wall_seconds_ = 0;

  const std::chrono::steady_clock::time_point start_;
};

/// RAII detach for an installed gauge source. The executors' gauge
/// closures capture run-local state (memory budgets, queues), so the
/// source must be cleared on *every* exit from Run — including exception
/// unwinds out of a user clique callback, where a live sampler thread
/// would otherwise snapshot dangling captures.
class ScopedGaugeSource {
 public:
  ScopedGaugeSource(ProgressEstimator* progress,
                    std::function<GaugeSample()> fn)
      : progress_(progress) {
    if (progress_ != nullptr) progress_->SetGaugeSource(std::move(fn));
  }
  ~ScopedGaugeSource() {
    if (progress_ != nullptr) progress_->ClearGaugeSource();
  }
  ScopedGaugeSource(const ScopedGaugeSource&) = delete;
  ScopedGaugeSource& operator=(const ScopedGaugeSource&) = delete;

 private:
  ProgressEstimator* progress_;
};

}  // namespace mce::obs

#endif  // MCE_OBS_PROGRESS_H_
