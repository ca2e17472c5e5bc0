// Wall-clock timing helpers: the finder's wall time and the benchmark
// harnesses.

#ifndef MCE_UTIL_TIMER_H_
#define MCE_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace mce {

/// Monotonic stopwatch. Starts running on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mce

#endif  // MCE_UTIL_TIMER_H_
