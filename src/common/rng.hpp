// Deterministic random number generation for workload synthesis.
//
// xoshiro256** (Blackman & Vigna) -- small, fast, and fully reproducible
// across platforms, unlike std::default_random_engine whose behaviour is
// implementation-defined. All distribution sampling is implemented here so a
// seed uniquely determines a generated trace on every toolchain. The state is
// private on purpose: a stream is resumed by reseeding and drawing again
// (service snapshots rebuild their arrival generator at stream start,
// DESIGN.md §13), never by copying words out and back in.

#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>

namespace echelon {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept {
    // SplitMix64 seeding, as recommended by the xoshiro authors.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }

  [[nodiscard]] std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  // Uniform integer in [0, n).
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t n) noexcept {
    // Lemire's nearly-divisionless method is overkill here; modulo bias on a
    // 64-bit generator is negligible for workload synthesis.
    return n == 0 ? 0 : next_u64() % n;
  }

  // Exponential with the given rate (mean = 1/rate). Used for Poisson job
  // inter-arrival times.
  [[nodiscard]] double exponential(double rate) noexcept {
    double u = uniform();
    // Guard the log: uniform() can return exactly 0.
    if (u <= 0.0) u = 0x1.0p-53;
    return -std::log(u) / rate;
  }

  // Standard normal via Box-Muller (no state caching; simplicity over speed).
  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0) noexcept {
    double u1 = uniform();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double u2 = uniform();
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
    return mean + stddev * z;
  }

  // Log-normal parameterized by the mean/stddev of the *underlying normal*.
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept {
    return std::exp(normal(mu, sigma));
  }

  // Bounded Pareto on [lo, hi] with shape alpha; heavy-tailed flow sizes.
  [[nodiscard]] double bounded_pareto(double lo, double hi,
                                      double alpha) noexcept {
    const double u = uniform();
    const double la = std::pow(lo, alpha);
    const double ha = std::pow(hi, alpha);
    return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
  }

  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

 private:
  [[nodiscard]] static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace echelon
