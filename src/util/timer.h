// Wall-clock stopwatch used by the per-stage runtime instrumentation
// (Table VIII reproduction; the samples land in obs::stage_summary).
#pragma once

#include <chrono>

namespace jsrev {

/// Simple stopwatch reporting elapsed milliseconds.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Elapsed time since construction/reset, in milliseconds.
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace jsrev
