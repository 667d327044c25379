#ifndef POWER_UTIL_STOPWATCH_H_
#define POWER_UTIL_STOPWATCH_H_

#include <chrono>

namespace power {

/// Wall-clock stopwatch for the timing figures (graph construction, grouping,
/// per-iteration question-assignment time).
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time in seconds since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace power

#endif  // POWER_UTIL_STOPWATCH_H_
