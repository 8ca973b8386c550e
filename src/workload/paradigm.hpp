// Common types for training-paradigm workflow generators.
//
// A generator turns (model, GPU, placement, #iterations) into:
//   * a netsim::Workflow -- the job's full computation/communication DAG,
//     unrolled over iterations, faithful to the paradigm's schedule (§2.1),
//   * EchelonFlow declarations in the registry, one per gradient bucket /
//     collective / worker-pair pipe, with the paradigm's arrangement
//     function (§4), and
//   * iteration-end markers for per-iteration metrics.

#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "echelon/registry.hpp"
#include "netsim/simulator.hpp"
#include "netsim/workflow.hpp"
#include "workload/gpu.hpp"
#include "workload/model.hpp"

namespace echelon::workload {

enum class Paradigm { kDpAllReduce, kDpPs, kPipeline, kTensor, kFsdp, kExpert };

[[nodiscard]] constexpr const char* to_string(Paradigm p) noexcept {
  switch (p) {
    case Paradigm::kDpAllReduce: return "DP-AllReduce";
    case Paradigm::kDpPs: return "DP-PS";
    case Paradigm::kPipeline: return "PP";
    case Paradigm::kTensor: return "TP";
    case Paradigm::kFsdp: return "FSDP";
    case Paradigm::kExpert: return "EP-MoE";
  }
  return "?";
}

// Where a job's ranks live: hosts[i] is the network attachment of rank i and
// workers[i] its GPU in the simulator.
struct Placement {
  std::vector<NodeId> hosts;
  std::vector<WorkerId> workers;

  [[nodiscard]] std::size_t size() const noexcept { return hosts.size(); }
};

// Creates one worker per host on the simulator.
[[nodiscard]] inline Placement make_placement(netsim::Simulator& sim,
                                              std::vector<NodeId> hosts) {
  Placement p;
  p.hosts = std::move(hosts);
  p.workers.reserve(p.hosts.size());
  for (const NodeId host : p.hosts) p.workers.push_back(sim.add_worker(host));
  return p;
}

struct GeneratedJob {
  Paradigm paradigm = Paradigm::kDpAllReduce;
  JobId job;
  netsim::Workflow workflow;
  std::vector<netsim::WfNodeId> iteration_end;  // barrier per iteration
  std::vector<EchelonFlowId> echelonflows;
  std::string description;
};

// Splits layers [0, n) into `parts` contiguous groups balanced by forward
// FLOPs (greedy prefix cut at the ideal per-part share). Returns half-open
// [begin, end) index pairs. Every part is non-empty when parts <= n.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
partition_layers(const ModelSpec& model, std::size_t parts);

// Multiplicative compute jitter: scales a nominal duration by a lognormal
// factor of relative stddev ~= `jitter`, floored so durations stay positive.
// With jitter == 0 the duration passes through exactly.
[[nodiscard]] inline Duration apply_jitter(Duration nominal, double jitter,
                                           Rng* rng) {
  if (jitter <= 0.0 || rng == nullptr) return nominal;
  const double factor = std::max(0.05, 1.0 + jitter * rng->normal());
  return nominal * factor;
}

// FlowTag::route_hint_base for the k-th EchelonFlow structure of a job:
// stable across iterations (the iteration index deliberately does not
// participate).
[[nodiscard]] constexpr std::uint64_t route_hint_base(
    JobId job, std::uint64_t ef_ordinal_in_iteration) noexcept {
  return ((job.value() + 1) << 36) | (ef_ordinal_in_iteration << 18) | 1;
}

}  // namespace echelon::workload
