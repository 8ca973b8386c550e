// Synthetic multi-tenant trace generation.
//
// Substitutes for the production GPU-cluster traces the paper's evaluation
// would have used (see DESIGN.md): Poisson job arrivals, a configurable
// paradigm mix, and log-normal-ish model-size variation. The contention
// structure -- many jobs with heterogeneous communication patterns sharing
// ports -- is what the scheduling comparison depends on, and the generator
// reproduces it deterministically from a seed.

#pragma once

#include <vector>

#include "common/rng.hpp"
#include "cluster/job.hpp"

namespace echelon::cluster {

struct TraceConfig {
  int num_jobs = 10;
  double arrival_rate = 0.5;  // jobs per second (Poisson)
  std::uint64_t seed = 42;

  // Paradigm mix: relative weights, same order as workload::Paradigm.
  // Default: DP-heavy, as in production clusters.
  std::vector<double> paradigm_weights = {4.0, 2.0, 2.0, 1.0, 2.0, 1.0};

  // Rank-count choices, sampled uniformly.
  std::vector<int> rank_choices = {2, 4, 8};

  // Model scale: layers uniform in [min,max]; width log-uniform-ish.
  int min_layers = 4;
  int max_layers = 12;
  int min_width = 1024;
  int max_width = 4096;
  int batch = 32;

  int iterations = 2;
  workload::GpuSpec gpu = workload::a100();
};

// Throws std::invalid_argument unless arrival_rate > 0, num_jobs >= 0,
// paradigm_weights has one entry per paradigm and rank_choices is non-empty.
void check_trace_config(const TraceConfig& cfg);

// One job's parameters: paradigm, ranks, layer count, width, then the model,
// drawn from `rng` in that order. The arrival instant and the inter-arrival
// gap are the caller's; generate_trace and the service's Poisson generator
// share this draw, so their streams agree job for job.
[[nodiscard]] JobSpec draw_job(const TraceConfig& cfg, Rng& rng);

// Checks cfg (check_trace_config), then draws cfg.num_jobs jobs from one Rng
// seeded with cfg.seed, each job's exponential gap after its parameters.
[[nodiscard]] std::vector<JobSpec> generate_trace(const TraceConfig& cfg);

}  // namespace echelon::cluster
