#include "cluster/trace.hpp"

#include <cmath>
#include <stdexcept>

namespace echelon::cluster {

namespace {

workload::Paradigm sample_paradigm(const std::vector<double>& weights,
                                   Rng& rng) {
  double total = 0.0;
  for (double w : weights) total += w;
  double x = rng.uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x <= 0.0) return static_cast<workload::Paradigm>(i);
  }
  return workload::Paradigm::kDpAllReduce;
}

}  // namespace

void check_trace_config(const TraceConfig& cfg) {
  if (cfg.arrival_rate <= 0.0) {
    throw std::invalid_argument("TraceConfig: arrival_rate must be > 0");
  }
  if (cfg.num_jobs < 0) {
    throw std::invalid_argument("TraceConfig: num_jobs must be >= 0");
  }
  if (cfg.paradigm_weights.size() != 6) {
    throw std::invalid_argument(
        "TraceConfig: paradigm_weights must have 6 entries");
  }
  if (cfg.rank_choices.empty()) {
    throw std::invalid_argument("TraceConfig: rank_choices must be non-empty");
  }
}

JobSpec draw_job(const TraceConfig& cfg, Rng& rng) {
  JobSpec spec;
  spec.paradigm = sample_paradigm(cfg.paradigm_weights, rng);
  spec.ranks = cfg.rank_choices[rng.uniform_int(cfg.rank_choices.size())];

  const int layers = cfg.min_layers +
                     static_cast<int>(rng.uniform_int(
                         static_cast<std::uint64_t>(cfg.max_layers -
                                                    cfg.min_layers + 1)));
  // Log-uniform width in [min_width, max_width].
  const double lw = rng.uniform(std::log(double(cfg.min_width)),
                                std::log(double(cfg.max_width)));
  const int width = static_cast<int>(std::exp(lw));

  // Pipeline stages consume one layer minimum each; ensure enough layers.
  const int eff_layers = spec.paradigm == workload::Paradigm::kPipeline
                             ? std::max(layers, spec.ranks)
                             : layers;
  spec.model = workload::make_mlp(eff_layers, width, cfg.batch);
  spec.gpu = cfg.gpu;
  spec.iterations = cfg.iterations;
  spec.buckets = std::min(4, eff_layers);
  spec.micro_batches = 4;
  return spec;
}

std::vector<JobSpec> generate_trace(const TraceConfig& cfg) {
  check_trace_config(cfg);
  Rng rng(cfg.seed);

  std::vector<JobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(cfg.num_jobs));
  SimTime clock = 0.0;
  for (int j = 0; j < cfg.num_jobs; ++j) {
    JobSpec spec = draw_job(cfg, rng);
    spec.arrival = clock;
    clock += rng.exponential(cfg.arrival_rate);
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

}  // namespace echelon::cluster
