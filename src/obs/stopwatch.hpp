#pragma once

// Wall-clock stopwatch on std::chrono::steady_clock. A wall time that
// feeds a registry metric must register it obs::Stability::kRun.

#include <chrono>
#include <cstdint>

namespace quicksand::obs {

/// Monotonic wall-clock stopwatch, started on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  void Restart() { start_ = std::chrono::steady_clock::now(); }

  [[nodiscard]] double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     start_)
        .count();
  }

  [[nodiscard]] std::int64_t ElapsedUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace quicksand::obs
