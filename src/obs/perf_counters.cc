#include "obs/perf_counters.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "obs/critical_path.h"
#include "obs/trace.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#define MCE_HAVE_PERF_EVENT 1
#else
#define MCE_HAVE_PERF_EVENT 0
#endif

namespace mce::obs {

namespace {

uint64_t ThreadCpuNanos() {
  timespec ts{};
#if defined(CLOCK_THREAD_CPUTIME_ID)
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
#else
  if (clock_gettime(CLOCK_MONOTONIC, &ts) != 0) return 0;
#endif
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

#if MCE_HAVE_PERF_EVENT

int PerfEventOpen(perf_event_attr* attr, int group_fd) {
  return static_cast<int>(syscall(__NR_perf_event_open, attr, /*pid=*/0,
                                  /*cpu=*/-1, group_fd,
                                  PERF_FLAG_FD_CLOEXEC));
}

perf_event_attr MakeAttr(uint32_t type, uint64_t config, bool leader) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = type;
  attr.size = sizeof(attr);
  attr.config = config;
  attr.disabled = leader ? 1 : 0;
  // Counting user-space work only keeps the group usable under
  // perf_event_paranoid == 2 (the common distro default).
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return attr;
}

#endif  // MCE_HAVE_PERF_EVENT

/// Process-wide probe result: 0 = not probed, 1 = available, -1 = not.
std::atomic<int> g_hardware_probe{0};

}  // namespace

CounterDelta& CounterDelta::operator+=(const CounterDelta& other) {
  cycles += other.cycles;
  instructions += other.instructions;
  cache_misses += other.cache_misses;
  branch_misses += other.branch_misses;
  task_clock_ns += other.task_clock_ns;
  if (source == CounterSource::kNone) {
    source = other.source;
  } else if (other.source == CounterSource::kHardware) {
    source = CounterSource::kHardware;
  }
  return *this;
}

CounterDelta& CounterDelta::SaturatingSubtract(const CounterDelta& other) {
  auto sub = [](uint64_t a, uint64_t b) { return a > b ? a - b : 0; };
  cycles = sub(cycles, other.cycles);
  instructions = sub(instructions, other.instructions);
  cache_misses = sub(cache_misses, other.cache_misses);
  branch_misses = sub(branch_misses, other.branch_misses);
  task_clock_ns = sub(task_clock_ns, other.task_clock_ns);
  return *this;
}

bool PerfCounterSet::HardwareAvailable() {
  int probed = g_hardware_probe.load(std::memory_order_relaxed);
  if (probed != 0) return probed > 0;

  int result = -1;
#if MCE_HAVE_PERF_EVENT
  const char* force = std::getenv("MCE_FORCE_NO_PERF");
  const bool forced_off = force != nullptr && force[0] != '\0' &&
                          std::strcmp(force, "0") != 0;
  if (!forced_off) {
    // Minimal probe: can we open, enable, and read a cycles counter on
    // this thread? Any failure (ENOSYS under seccomp, EPERM/EACCES under
    // perf_event_paranoid, ENOENT without a PMU) means no.
    perf_event_attr attr =
        MakeAttr(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, true);
    const int fd = PerfEventOpen(&attr, -1);
    if (fd >= 0) {
      uint64_t buf[4] = {0, 0, 0, 0};  // nr, time_enabled, time_running, v0
      if (ioctl(fd, PERF_EVENT_IOC_ENABLE, 0) == 0 &&
          read(fd, buf, sizeof(buf)) > 0) {
        result = 1;
      }
      close(fd);
    }
  }
#endif
  // Another thread may race the probe; both arrive at the same answer.
  g_hardware_probe.store(result, std::memory_order_relaxed);
  return result > 0;
}

PerfCounterSet::PerfCounterSet() {
  if (HardwareAvailable()) OpenGroup();
}

PerfCounterSet::~PerfCounterSet() { Close(); }

void PerfCounterSet::OpenGroup() {
#if MCE_HAVE_PERF_EVENT
  struct EventSpec {
    uint32_t type;
    uint64_t config;
  };
  // Logical order matches present_[]: cycles, instructions, cache-misses,
  // branch-misses, task-clock.
  const EventSpec specs[5] = {
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
      {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK},
  };
  perf_event_attr leader = MakeAttr(specs[0].type, specs[0].config, true);
  group_fd_ = PerfEventOpen(&leader, -1);
  if (group_fd_ < 0) return;  // probe passed but this thread cannot open
  present_[0] = 0;
  group_size_ = 1;
  int member = 0;
  for (int i = 1; i < 5; ++i) {
    perf_event_attr attr = MakeAttr(specs[i].type, specs[i].config, false);
    const int fd = PerfEventOpen(&attr, group_fd_);
    if (fd < 0) continue;  // tolerate individual events missing
    member_fds_[member++] = fd;
    present_[i] = group_size_++;
  }
  if (ioctl(group_fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP) != 0 ||
      ioctl(group_fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP) != 0) {
    Close();
  }
#endif
}

void PerfCounterSet::Close() {
#if MCE_HAVE_PERF_EVENT
  for (int& fd : member_fds_) {
    if (fd >= 0) close(fd);
    fd = -1;
  }
  if (group_fd_ >= 0) close(group_fd_);
  group_fd_ = -1;
#endif
  for (int& slot : present_) slot = -1;
  group_size_ = 0;
}

PerfCounterSet::Snapshot PerfCounterSet::Read() {
  Snapshot snap;
  snap.thread_ns = ThreadCpuNanos();
#if MCE_HAVE_PERF_EVENT
  if (group_fd_ >= 0) {
    // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running, values[nr].
    uint64_t buf[3 + 5] = {0};
    const ssize_t n = read(group_fd_, buf, sizeof(buf));
    if (n >= static_cast<ssize_t>((3 + group_size_) * sizeof(uint64_t))) {
      snap.time_enabled = buf[1];
      snap.time_running = buf[2];
      for (int i = 0; i < 5; ++i) {
        if (present_[i] >= 0) snap.values[i] = buf[3 + present_[i]];
      }
    } else {
      // A failing read (e.g. the PMU went away) downgrades permanently.
      Close();
    }
  }
#endif
  return snap;
}

CounterDelta PerfCounterSet::Delta(const Snapshot& begin,
                                   const Snapshot& end) const {
  CounterDelta d;
  const uint64_t thread_ns =
      end.thread_ns > begin.thread_ns ? end.thread_ns - begin.thread_ns : 0;
  if (group_fd_ < 0) {
    d.task_clock_ns = thread_ns;
    d.source = CounterSource::kSoftware;
    return d;
  }
  auto diff = [](uint64_t a, uint64_t b) { return a > b ? a - b : 0; };
  // Scale for multiplexing: when more groups are scheduled than the PMU
  // has slots, the kernel time-slices them and reports the enabled vs
  // actually-running time; extrapolate counts by enabled/running.
  const uint64_t enabled = diff(end.time_enabled, begin.time_enabled);
  const uint64_t running = diff(end.time_running, begin.time_running);
  const double scale =
      (running > 0 && enabled > running)
          ? static_cast<double>(enabled) / static_cast<double>(running)
          : 1.0;
  auto scaled = [&](int logical) -> uint64_t {
    if (present_[logical] < 0) return 0;
    const uint64_t raw = diff(end.values[logical], begin.values[logical]);
    return static_cast<uint64_t>(static_cast<double>(raw) * scale);
  };
  d.cycles = scaled(0);
  d.instructions = scaled(1);
  d.cache_misses = scaled(2);
  d.branch_misses = scaled(3);
  // Task-clock is a software event: never multiplexed, report it raw; fall
  // back to the thread CPU clock if the event failed to open.
  d.task_clock_ns =
      present_[4] >= 0 ? diff(end.values[4], begin.values[4]) : thread_ns;
  d.source = CounterSource::kHardware;
  return d;
}

PerfCounterSet& PerfCounterSet::ForCurrentThread() {
  thread_local PerfCounterSet set;
  return set;
}

void ScopedCounters::Begin() {
  begin_ = PerfCounterSet::ForCurrentThread().Read();
  active_ = true;
}

CounterDelta ScopedCounters::Finish() {
  active_ = false;
  PerfCounterSet& set = PerfCounterSet::ForCurrentThread();
  return set.Delta(begin_, set.Read());
}

double ProfileBucket::Ipc() const {
  return counters.cycles > 0 ? static_cast<double>(counters.instructions) /
                                   static_cast<double>(counters.cycles)
                             : 0.0;
}

double ProfileBucket::NsPerClique() const {
  return cliques > 0 ? static_cast<double>(counters.task_clock_ns) /
                           static_cast<double>(cliques)
                     : 0.0;
}

void ProfileAccumulator::Add(const TaskSpan& span) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.enabled = true;
  if (span.prof.source == CounterSource::kHardware) stats_.hardware = true;

  auto add_to = [&](ProfileBucket& b) {
    b.spans += 1;
    b.seconds += span.Seconds();
    b.cliques += span.cliques;
    b.counters += span.prof;
  };
  add_to(stats_.total);

  const uint8_t kind_value = static_cast<uint8_t>(span.kind);
  ProfileBucket* kind_bucket = nullptr;
  for (auto& [value, bucket] : stats_.by_kind) {
    if (value == kind_value) {
      kind_bucket = &bucket;
      break;
    }
  }
  if (kind_bucket == nullptr) {
    stats_.by_kind.emplace_back(kind_value, ProfileBucket());
    kind_bucket = &stats_.by_kind.back().second;
  }
  add_to(*kind_bucket);

  if (span.kind != SpanKind::kReduce) {
    if (stats_.by_level.size() <= span.level) {
      stats_.by_level.resize(span.level + 1);
    }
    add_to(stats_.by_level[span.level]);
  }
}

ProfileStats ProfileAccumulator::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string ProfileStats::ToString() const {
  if (!enabled) return std::string();
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line), "profile (%s counters):\n",
                hardware ? "hardware" : "software-clock");
  out += line;
  auto row = [&](const char* label, const ProfileBucket& b) {
    if (b.spans == 0) return;
    std::snprintf(line, sizeof(line),
                  "  %-14s %8" PRIu64 " spans  %8.3fs  cyc %11" PRIu64
                  "  ipc %4.2f  cache-miss %9" PRIu64 "  branch-miss %9" PRIu64
                  "\n",
                  label, b.spans, b.seconds, b.counters.cycles, b.Ipc(),
                  b.counters.cache_misses, b.counters.branch_misses);
    out += line;
  };
  row("total", total);
  for (const auto& [kind, bucket] : by_kind) {
    row(mce::obs::ToString(static_cast<SpanKind>(kind)), bucket);
  }
  return out;
}

}  // namespace mce::obs
