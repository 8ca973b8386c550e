// Streaming job-arrival sources for the online service loop (DESIGN.md §13).
//
// Two concrete generators:
//   * PoissonArrivalGenerator -- samples the exact per-job draw sequence of
//     cluster::generate_trace (same Rng consumption order), so the stream it
//     emits for a TraceConfig is element-for-element identical to the batch
//     trace for that config. An optional burst knob collapses every Nth
//     inter-arrival gap to zero without perturbing the draw sequence.
//   * TraceFileArrivalReader -- replays a text arrival-trace file
//     (write_arrival_trace's format, the fault-plan round-trip idiom:
//     precision-17 doubles, line-based parse, loud std::invalid_argument
//     with a line number on any malformed input).
//
// Both are checkpointable: their progress state is small and explicit
// (snapshot.cpp serializes it), and restoring it resumes the stream
// bit-exactly mid-flight.

#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/job.hpp"
#include "cluster/trace.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"

namespace echelon::service {

struct Arrival {
  SimTime at = 0.0;
  cluster::JobSpec job;
};

class ArrivalGenerator {
 public:
  virtual ~ArrivalGenerator() = default;
  // Next arrival, or nullopt when the stream is exhausted. Arrival times
  // must be non-decreasing; the ServiceLoop enforces this loudly.
  [[nodiscard]] virtual std::optional<Arrival> next() = 0;
  [[nodiscard]] virtual const char* kind() const noexcept = 0;
};

// Seeded Poisson stream, draw-compatible with cluster::generate_trace.
class PoissonArrivalGenerator final : public ArrivalGenerator {
 public:
  // burst_every == 0 disables bursting; N >= 2 makes every Nth job arrive
  // at the same instant as its predecessor (the exponential gap draw is
  // still consumed, so the sampled job parameters are unchanged -- only the
  // arrival clock differs). Throws std::invalid_argument on a non-positive
  // arrival rate or num_jobs < 0.
  explicit PoissonArrivalGenerator(const cluster::TraceConfig& config,
                                   int burst_every = 0);

  [[nodiscard]] std::optional<Arrival> next() override;
  [[nodiscard]] const char* kind() const noexcept override {
    return "poisson";
  }

  // Checkpoint surface (snapshot.cpp).
  [[nodiscard]] const cluster::TraceConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] int burst_every() const noexcept { return burst_every_; }
  [[nodiscard]] const Rng& rng() const noexcept { return rng_; }
  [[nodiscard]] SimTime clock() const noexcept { return clock_; }
  [[nodiscard]] int emitted() const noexcept { return emitted_; }
  void restore(const std::array<std::uint64_t, 4>& rng_state, SimTime clock,
               int emitted) noexcept {
    rng_.set_state(rng_state);
    clock_ = clock;
    emitted_ = emitted;
  }

 private:
  cluster::TraceConfig config_;
  int burst_every_;
  Rng rng_;
  SimTime clock_ = 0.0;
  int emitted_ = 0;
};

// Replays a written arrival trace file.
class TraceFileArrivalReader final : public ArrivalGenerator {
 public:
  // Parses the whole file up front (fail-fast on malformed input); throws
  // std::invalid_argument with a line number on any parse error and
  // std::runtime_error if the file cannot be opened.
  explicit TraceFileArrivalReader(const std::string& path);

  [[nodiscard]] std::optional<Arrival> next() override;
  [[nodiscard]] const char* kind() const noexcept override { return "trace"; }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::size_t index() const noexcept { return index_; }
  [[nodiscard]] std::size_t size() const noexcept { return arrivals_.size(); }
  // Checkpoint restore: skip the first `index` arrivals.
  void seek(std::size_t index);

 private:
  std::string path_;
  std::vector<Arrival> arrivals_;
  std::size_t index_ = 0;
};

// Text serialization for arrival streams (fault_plan.hpp round-trip idiom):
// write(parse(text)) == text, and write -> read -> write is byte-identical.
// Only MLP-parameterized models survive the round trip exactly as written;
// arbitrary ModelSpecs are emitted layer-by-layer.
void write_arrival_trace(std::ostream& out,
                         const std::vector<Arrival>& arrivals);
[[nodiscard]] std::string serialize_arrivals(
    const std::vector<Arrival>& arrivals);
// parse_arrival_trace throws std::invalid_argument naming the line -- and,
// for a field out of range, the field -- on malformed input: ranks,
// iterations, buckets and micro must be >= 1; layers >= buckets; jitter,
// submit, act, fwd and bwd >= 0; peak and bpe > 0; eff in (0, 1].
[[nodiscard]] std::vector<Arrival> parse_arrival_trace(std::istream& in);
[[nodiscard]] std::vector<Arrival> parse_arrival_trace(
    const std::string& text);

// Drains a generator to completion (testing / trace capture helper).
[[nodiscard]] std::vector<Arrival> drain(ArrivalGenerator& gen);

}  // namespace echelon::service
