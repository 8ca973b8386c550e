// Wall-clock timing for experiment and bench runners.
//
// ScopedTimer centralizes the steady_clock boilerplate that used to be
// copy-pasted at every `wall_ms` call site: construct it where timing should
// begin, read elapsed_ms() where it should end (or let the destructor write
// the out-param). Used by service::ServiceLoop and by the observability
// layer's run-summary gauges.

#pragma once

#include <chrono>

namespace echelon {

class ScopedTimer {
 public:
  // `out_ms` (optional) receives the elapsed milliseconds at destruction --
  // handy when the timed scope has several exits.
  explicit ScopedTimer(double* out_ms = nullptr) noexcept
      : out_ms_(out_ms), start_(Clock::now()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (out_ms_ != nullptr) *out_ms_ = elapsed_ms();
  }

  // Milliseconds since construction (monotonic clock).
  [[nodiscard]] double elapsed_ms() const noexcept {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  double* out_ms_;
  Clock::time_point start_;
};

}  // namespace echelon
