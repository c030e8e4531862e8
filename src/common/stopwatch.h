#ifndef GRALMATCH_COMMON_STOPWATCH_H_
#define GRALMATCH_COMMON_STOPWATCH_H_

/// \file stopwatch.h
/// Wall-clock timing for the experiment harnesses.

#include <chrono>
#include <string>

namespace gralmatch {

/// \brief Simple wall-clock stopwatch, started on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restart the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction / last Reset.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Human-readable elapsed time, e.g. "1h 26min", "4.8 min", "31 sec".
  std::string ElapsedHuman() const;

  /// Format an arbitrary duration in seconds as in ElapsedHuman().
  static std::string FormatSeconds(double seconds);

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace gralmatch

#endif  // GRALMATCH_COMMON_STOPWATCH_H_
