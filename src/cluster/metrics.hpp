// Experiment result types.

#pragma once

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "workload/paradigm.hpp"

namespace echelon::cluster {

struct JobMetrics {
  JobId job;
  workload::Paradigm paradigm = workload::Paradigm::kDpAllReduce;
  std::string description;
  SimTime arrival = 0.0;
  SimTime finish = 0.0;
  std::vector<Duration> iteration_times;
  double mean_gpu_idle_fraction = 0.0;

  [[nodiscard]] Duration jct() const noexcept { return finish - arrival; }
  [[nodiscard]] Duration mean_iteration_time() const noexcept {
    if (iteration_times.empty()) return 0.0;
    Duration s = 0.0;
    for (Duration t : iteration_times) s += t;
    return s / static_cast<double>(iteration_times.size());
  }
};

struct ExperimentResult {
  std::string scheduler_name;
  std::vector<JobMetrics> jobs;

  // Objective values from the registry (Eqs. 3/4).
  Duration total_tardiness = 0.0;
  Duration weighted_total_tardiness = 0.0;

  // Control-plane cost.
  std::uint64_t control_invocations = 0;
  // Host time of the run's steps minus build_ms. Host timing, so never
  // compared between runs.
  double wall_ms = 0.0;
  // Host time spent building arrived jobs' workflows and freeing finished
  // ones. Host timing, like wall_ms.
  double build_ms = 0.0;
  // Most workflows held at once, sampled after each step: built and not yet
  // freed. Deterministic.
  std::uint64_t peak_live_workflows = 0;

  // Fault-injection summary (all zero when no fault plan was attached).
  std::uint64_t fault_events = 0;     // plan events fired
  std::uint64_t flow_reroutes = 0;    // flows re-pathed around a dead link
  std::uint64_t flow_parks = 0;       // flows pulled from the network
  std::uint64_t flow_retries = 0;     // failed resubmission attempts
  std::uint64_t flows_abandoned = 0;  // retry budget exhausted
  Duration flow_downtime = 0.0;       // total time flows spent parked

  SimTime makespan = 0.0;

  [[nodiscard]] Samples jct_samples() const {
    Samples s;
    for (const JobMetrics& j : jobs) s.add(j.jct());
    return s;
  }
  [[nodiscard]] Samples iteration_samples() const {
    Samples s;
    for (const JobMetrics& j : jobs) s.add_all(j.iteration_times);
    return s;
  }
  [[nodiscard]] double mean_idle_fraction() const {
    if (jobs.empty()) return 0.0;
    double s = 0.0;
    for (const JobMetrics& j : jobs) s += j.mean_gpu_idle_fraction;
    return s / static_cast<double>(jobs.size());
  }
};

}  // namespace echelon::cluster
