// TelemetrySampler — background heartbeat thread over a ProgressEstimator.
//
// Once started, a sampler thread wakes every interval, takes a progress
// snapshot, and appends one NDJSON record to the configured stream (a
// file path, or "-" for stdout) and/or redraws a single-line TTY status
// on stderr. Finish() marks the run complete, emits one final record
// (`"final":true`, fraction 1.0 on success), and joins the thread — so a
// heartbeat file always ends with a terminal record that trace_check
// --heartbeat can validate, even for runs shorter than one interval.
//
// The sampler owns no engine state: everything it reports flows through
// ProgressEstimator, including the engine gauges (queue depth, memory)
// via the estimator's gauge-source callback. That keeps the sampling
// thread safe to run across executor teardown: executors clear their
// gauge source before their gauges die, and ClearGaugeSource blocks
// until any in-flight snapshot is out of the callback; its last sample is
// what every later record, the final one included, reports.

#ifndef MCE_OBS_TELEMETRY_H_
#define MCE_OBS_TELEMETRY_H_

#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "obs/progress.h"

namespace mce::obs {

struct TelemetryOptions {
  /// NDJSON heartbeat destination: "" disables the stream, "-" writes
  /// to stdout, anything else is a file path (truncated on open).
  std::string out_path;
  /// Sampling period. Clamped to >= 1.
  int interval_ms = 500;
  /// Redraw a single-line progress status on stderr each tick.
  bool tty_progress = false;
};

class TelemetrySampler {
 public:
  /// `progress` must outlive the sampler.
  TelemetrySampler(ProgressEstimator* progress, TelemetryOptions options);
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Opens the output and launches the sampling thread. Returns false
  /// (with a warning logged) if the heartbeat file cannot be opened;
  /// the sampler is then inert and Finish() is a no-op.
  bool Start();

  /// Marks the run complete, emits the final heartbeat record, and
  /// joins the sampler thread. Idempotent; the destructor calls
  /// Finish(false) if the caller never did.
  void Finish(bool success);

  bool running() const { return thread_.joinable(); }

 private:
  void Loop();
  void Emit(const ProgressSnapshot& s, bool final_record, bool success);
  void WriteRecord(const ProgressSnapshot& s, bool final_record,
                   bool success);
  void RenderTty(const ProgressSnapshot& s);

  ProgressEstimator* const progress_;
  const TelemetryOptions options_;
  std::FILE* out_ = nullptr;   // not owned when stdout
  bool owns_out_ = false;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool finished_ = false;
  bool tty_dirty_ = false;  // a \r status line is on screen
};

}  // namespace mce::obs

#endif  // MCE_OBS_TELEMETRY_H_
