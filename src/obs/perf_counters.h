// Per-thread hardware performance counters for task attribution.
//
// A PerfCounterSet wraps one perf_event_open(2) group per thread —
// cycles (leader), instructions, cache-misses, branch-misses, and the
// software task-clock — read together in one syscall so the members are
// sampled over the same interval. When the syscall is unavailable
// (containers with a seccomp filter, perf_event_paranoid >= 3, kernels
// without PMU access) the set degrades to a software clock:
// clock_gettime(CLOCK_THREAD_CPUTIME_ID) still yields task_clock_ns, and
// the hardware fields stay zero with the delta marked kSoftware. The
// availability probe runs once per process and honors MCE_FORCE_NO_PERF=1
// (force the software path; used by the tier-1 fallback leg).
//
// Counter values are exposed only as *deltas* between Begin/Finish pairs
// (ScopedCounters), scaled for multiplexing by the group's
// time_enabled/time_running ratio. Deltas attach to TraceRecorder spans
// (Chrome-trace "E"-event args), and a ProfileAccumulator folds those
// spans into the per-kind / per-level ProfileStats that the run result
// and the --json "profile" object carry.
//
// Everything here is off unless FindMaxCliquesOptions::profile is set;
// the executors test one plain bool per task when it is not.

#ifndef MCE_OBS_PERF_COUNTERS_H_
#define MCE_OBS_PERF_COUNTERS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mce::obs {

enum class SpanKind : uint8_t;
struct TaskSpan;

/// Where a CounterDelta's numbers came from.
enum class CounterSource : uint8_t {
  kNone = 0,      // counters were not enabled for this span
  kHardware = 1,  // perf_event_open group read (all fields meaningful)
  kSoftware = 2,  // thread-CPU-clock fallback (only task_clock_ns)
};

/// Counter increments over one task's execution window.
struct CounterDelta {
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t cache_misses = 0;
  uint64_t branch_misses = 0;
  uint64_t task_clock_ns = 0;
  CounterSource source = CounterSource::kNone;

  CounterDelta& operator+=(const CounterDelta& other);
  /// Per-field saturating subtraction (for carving a parent span's self
  /// time out of its children on the nesting serial executor). The source
  /// of *this is kept.
  CounterDelta& SaturatingSubtract(const CounterDelta& other);
};

/// One thread's counter group. Not thread-safe; use ForCurrentThread()
/// (a thread_local instance) from task code.
class PerfCounterSet {
 public:
  PerfCounterSet();
  ~PerfCounterSet();

  PerfCounterSet(const PerfCounterSet&) = delete;
  PerfCounterSet& operator=(const PerfCounterSet&) = delete;

  /// True when the process-wide probe found a usable perf_event_open.
  /// The first call performs the probe (open + read + close of a minimal
  /// group on the calling thread); later calls are one relaxed load.
  /// MCE_FORCE_NO_PERF=1 in the environment forces false.
  static bool HardwareAvailable();

  /// The calling thread's lazily-constructed counter set.
  static PerfCounterSet& ForCurrentThread();

  /// True when this set opened a hardware group; false on the software
  /// fallback.
  bool hardware() const { return group_fd_ >= 0; }

  /// Opaque snapshot of the current counter values.
  struct Snapshot {
    uint64_t values[5] = {0, 0, 0, 0, 0};  // cycles, instr, cache, branch
    uint64_t time_enabled = 0;             // ns the group was enabled
    uint64_t time_running = 0;             // ns it was actually on the PMU
    uint64_t thread_ns = 0;                // CLOCK_THREAD_CPUTIME_ID
  };

  Snapshot Read();

  /// Counter increments from `begin` to `end`, multiplex-scaled.
  CounterDelta Delta(const Snapshot& begin, const Snapshot& end) const;

 private:
  void OpenGroup();
  void Close();

  int group_fd_ = -1;        // leader (cycles); -1 = software fallback
  int member_fds_[4] = {-1, -1, -1, -1};
  /// Which of the 5 logical counters are present in the group read, in
  /// open order. present_[i] maps logical index (0 cycles, 1 instructions,
  /// 2 cache_misses, 3 branch_misses, 4 task_clock) to its slot in the
  /// read buffer, or -1 when that event failed to open.
  int present_[5] = {-1, -1, -1, -1, -1};
  int group_size_ = 0;
};

/// RAII-free begin/finish pair for one task window. Usage:
///
///   obs::ScopedCounters sc;
///   if (profile) sc.Begin();
///   ... run the task ...
///   if (sc.active()) event.prof = sc.Finish();
class ScopedCounters {
 public:
  void Begin();
  bool active() const { return active_; }
  /// Delta since Begin(). Resets the active flag.
  CounterDelta Finish();

 private:
  PerfCounterSet::Snapshot begin_;
  bool active_ = false;
};

/// Aggregated attribution for one bucket (a task kind or a level).
struct ProfileBucket {
  uint64_t spans = 0;
  double seconds = 0;      // summed span wall durations
  uint64_t cliques = 0;    // cliques emitted inside the bucket's spans
  CounterDelta counters;

  /// instructions / cycles, or 0 when cycles were not measured.
  double Ipc() const;
  /// task_clock_ns / cliques, or 0 without cliques.
  double NsPerClique() const;
};

/// Snapshot of a run's counter attribution: the grand total plus per-kind
/// and per-level breakdowns. Buckets only ever receive what the total
/// receives, so by_kind sums reproduce `total` exactly, and by_level sums
/// reproduce it minus the ReduceTask bucket.
struct ProfileStats {
  bool enabled = false;    // options.profile was set
  bool hardware = false;   // at least one span read hardware counters
  ProfileBucket total;
  std::vector<std::pair<uint8_t, ProfileBucket>> by_kind;   // SpanKind value
  std::vector<ProfileBucket> by_level;  // index = recursion level

  std::string ToString() const;
};

/// The one fold from task spans to ProfileStats, shared by the executors
/// (live, as each task closes) and the trace analyzer (over a parsed
/// trace). Thread-safe; one mutex acquisition per task — tasks are
/// milliseconds, so this never contends measurably.
class ProfileAccumulator {
 public:
  /// Adds one span to the total, its kind bucket and its level bucket: its
  /// window seconds, its cliques (obs::TaskSpanFromEvent's rule) and its
  /// counter delta. A ReduceTask runs outside the recursion, so it gets no
  /// level bucket.
  void Add(const TaskSpan& span);

  ProfileStats Snapshot() const;

 private:
  mutable std::mutex mu_;
  ProfileStats stats_;
};

}  // namespace mce::obs

#endif  // MCE_OBS_PERF_COUNTERS_H_
