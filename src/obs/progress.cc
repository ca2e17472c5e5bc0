#include "obs/progress.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace mce::obs {

namespace {

/// EWMA smoothing for the cost-throughput estimate. Heavier weight on
/// history than on the instantaneous rate: per-tick rates are noisy
/// (one monster block retiring inflates a single interval).
constexpr double kEwmaAlpha = 0.3;

/// ETA samples kept for final error accounting; beyond this the record
/// is already dense enough and a multi-day run must not grow unbounded.
constexpr size_t kMaxEtaSamples = 4096;

double FetchAdd(std::atomic<double>& a, double delta) {
  // std::atomic<double>::fetch_add exists in C++20 but CAS-looping by
  // hand keeps us working on toolchains whose libstdc++ lacks it.
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta,
                                  std::memory_order_relaxed)) {
  }
  return cur + delta;
}

}  // namespace

ProgressEstimator::ProgressEstimator()
    : start_(std::chrono::steady_clock::now()) {}

double ProgressEstimator::ElapsedSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

ProgressEstimator::LevelCounters& ProgressEstimator::LevelAt(uint32_t level) {
  if (levels_.size() <= level) levels_.resize(level + 1);
  return levels_[level];
}

void ProgressEstimator::RegisterBlock(uint32_t level, double cost) {
  MCE_DCHECK(cost >= 0);
  FetchAdd(registered_cost_, cost);
  std::lock_guard<std::mutex> lock(mu_);
  ++LevelAt(level).blocks;
  ++blocks_;
}

void ProgressEstimator::RetireBlock(uint32_t level, double units) {
  MCE_DCHECK(units >= 0);
  FetchAdd(completed_cost_, units);
  std::lock_guard<std::mutex> lock(mu_);
  ++LevelAt(level).blocks_done;
  ++blocks_done_;
}

void ProgressEstimator::AddCliques(uint64_t n) {
  cliques_.fetch_add(n, std::memory_order_relaxed);
}

void ProgressEstimator::AddSpillChunk(uint64_t bytes) {
  spill_chunks_.fetch_add(1, std::memory_order_relaxed);
  spill_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

void ProgressEstimator::BeginLevel(uint32_t level) {
  std::lock_guard<std::mutex> lock(mu_);
  LevelAt(level).started = true;
}

void ProgressEstimator::FinishLevel(uint32_t level) {
  std::lock_guard<std::mutex> lock(mu_);
  LevelAt(level).finished = true;
}

void ProgressEstimator::MarkComplete() {
  std::lock_guard<std::mutex> lock(mu_);
  if (complete_.load(std::memory_order_relaxed)) return;
  wall_seconds_ = ElapsedSeconds();
  fraction_hwm_ = 1.0;
  complete_.store(true, std::memory_order_release);
}

void ProgressEstimator::SetGaugeSource(std::function<GaugeSample()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  gauge_source_ = std::move(fn);
}

void ProgressEstimator::ClearGaugeSource() {
  std::lock_guard<std::mutex> lock(mu_);
  if (gauge_source_) last_gauges_ = gauge_source_();
  gauge_source_ = nullptr;
}

ProgressSnapshot ProgressEstimator::TakeSnapshot() {
  ProgressSnapshot s;
  // Load the lock-free counters first: completed may keep moving while
  // we hold the mutex, but each successive snapshot re-loads, so the
  // reported series stays monotone.
  s.registered_cost = registered_cost_.load(std::memory_order_relaxed);
  s.completed_cost = completed_cost_.load(std::memory_order_relaxed);
  s.cliques = cliques_.load(std::memory_order_relaxed);
  s.spill_chunks = spill_chunks_.load(std::memory_order_relaxed);
  s.spill_bytes = spill_bytes_.load(std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(mu_);
  s.seq = seq_++;
  s.elapsed_seconds = ElapsedSeconds();
  s.complete = complete_.load(std::memory_order_relaxed);
  s.blocks = blocks_;
  s.blocks_done = blocks_done_;
  s.levels.reserve(levels_.size());
  for (uint32_t i = 0; i < levels_.size(); ++i) {
    const LevelCounters& lc = levels_[i];
    if (lc.started) ++s.levels_started;
    if (lc.finished) ++s.levels_finished;
    if (lc.blocks == 0 && !lc.started) continue;
    s.levels.push_back(LevelProgress{i, lc.blocks, lc.blocks_done});
  }
  s.gauges = gauge_source_ ? gauge_source_() : last_gauges_;

  // High-water fraction: raw completed/registered can dip when a new
  // level registers a burst of cost, so the reported fraction only ever
  // ratchets up. While the run is live the denominator is still growing
  // — pipelined analysis can transiently retire everything registered so
  // far — so an incomplete run is capped just below 1.0; only
  // MarkComplete reports exactly 1.0.
  double raw = s.registered_cost > 0
                   ? s.completed_cost / s.registered_cost
                   : 0.0;
  raw = std::clamp(raw, 0.0, s.complete ? 1.0 : 0.99);
  if (s.complete) raw = 1.0;
  fraction_hwm_ = std::max(fraction_hwm_, raw);
  s.fraction = fraction_hwm_;

  // EWMA throughput over retired cost; skip degenerate intervals.
  const double dt = s.elapsed_seconds - last_elapsed_;
  const double dc = s.completed_cost - last_completed_;
  if (dt > 1e-6) {
    const double inst = std::max(dc, 0.0) / dt;
    ewma_throughput_ = ewma_throughput_ > 0
                           ? kEwmaAlpha * inst +
                                 (1 - kEwmaAlpha) * ewma_throughput_
                           : inst;
    last_elapsed_ = s.elapsed_seconds;
    last_completed_ = s.completed_cost;
  }
  s.throughput = ewma_throughput_;
  if (s.complete) {
    s.eta_seconds = 0;
  } else if (ewma_throughput_ > 0 && s.registered_cost > 0) {
    const double remaining =
        std::max(s.registered_cost - s.completed_cost, 0.0);
    s.eta_seconds = remaining / ewma_throughput_;
    if (eta_samples_.size() < kMaxEtaSamples) {
      eta_samples_.push_back(EtaSample{s.elapsed_seconds, s.eta_seconds});
    }
  }
  return s;
}

ProgressAccounting ProgressEstimator::Accounting() const {
  ProgressAccounting a;
  a.enabled = true;
  a.predicted_cost = registered_cost_.load(std::memory_order_relaxed);
  a.completed_cost = completed_cost_.load(std::memory_order_relaxed);
  a.cliques = cliques_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  a.blocks = blocks_;
  a.wall_seconds = complete_.load(std::memory_order_relaxed)
                       ? wall_seconds_
                       : ElapsedSeconds();
  a.samples = eta_samples_.size();
  if (!eta_samples_.empty()) {
    double sum = 0;
    for (const EtaSample& e : eta_samples_) {
      sum += std::abs(e.elapsed_seconds + e.eta_seconds - a.wall_seconds);
    }
    a.mean_abs_eta_error_seconds = sum / static_cast<double>(a.samples);
  }
  return a;
}

}  // namespace mce::obs
