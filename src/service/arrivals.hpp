// Streaming job-arrival sources for the online service loop (DESIGN.md §13).
//
// Three concrete generators:
//   * PoissonArrivalGenerator -- draws each job with cluster::draw_job, the
//     draw cluster::generate_trace uses (same Rng consumption order), so the
//     stream it emits for a TraceConfig is element-for-element identical to
//     the batch trace for that config. An optional burst knob collapses
//     every Nth inter-arrival gap to zero without perturbing the draws.
//   * TraceFileArrivalReader -- replays a text arrival-trace file
//     (write_arrival_trace's format, the fault-plan round-trip idiom:
//     precision-17 doubles, line-based parse, loud std::invalid_argument
//     with a line number on any malformed input).
//   * ScheduleArrivalGenerator -- replays a job list in order, each job at
//     its JobSpec::arrival: run_experiment's trace as an arrival stream.
//
// All are deterministic from their construction arguments. A snapshot
// records those of the first two (snapshot.cpp): restore rebuilds the
// generator at stream start and the replayed step loop pulls the same
// arrivals again. A job list is not recorded, so a loop fed one cannot be
// snapshotted.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
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
  // arrival clock differs). Throws std::invalid_argument on a config
  // cluster::check_trace_config rejects.
  explicit PoissonArrivalGenerator(const cluster::TraceConfig& config,
                                   int burst_every = 0);

  [[nodiscard]] std::optional<Arrival> next() override;
  [[nodiscard]] const char* kind() const noexcept override {
    return "poisson";
  }

  // Construction arguments (snapshot.cpp records them).
  [[nodiscard]] const cluster::TraceConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] int burst_every() const noexcept { return burst_every_; }

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
  // FNV-1a over the file's bytes as read (snapshot.cpp records it, so a
  // restore from a rewritten file fails instead of replaying other jobs).
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }
  [[nodiscard]] std::size_t size() const noexcept { return arrivals_.size(); }

 private:
  std::string path_;
  std::uint64_t digest_ = 0;
  std::vector<Arrival> arrivals_;
  std::size_t index_ = 0;
};

// Replays `jobs` in order, job i arriving at jobs[i].arrival. Views the list,
// which must outlive the generator.
class ScheduleArrivalGenerator final : public ArrivalGenerator {
 public:
  explicit ScheduleArrivalGenerator(std::span<const cluster::JobSpec> jobs)
      : jobs_(jobs) {}

  [[nodiscard]] std::optional<Arrival> next() override {
    if (next_ == jobs_.size()) return std::nullopt;
    const cluster::JobSpec& job = jobs_[next_++];
    return Arrival{job.arrival, job};
  }
  [[nodiscard]] const char* kind() const noexcept override {
    return "schedule";
  }

 private:
  std::span<const cluster::JobSpec> jobs_;
  std::size_t next_ = 0;
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
