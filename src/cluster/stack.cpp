#include "cluster/stack.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "echelon/coflow_madd.hpp"
#include "echelon/echelon_madd.hpp"
#include "echelon/sincronia.hpp"
#include "echelon/srpt.hpp"
#include "workload/dp.hpp"
#include "workload/ep.hpp"
#include "workload/fsdp.hpp"
#include "workload/pp.hpp"
#include "workload/tp.hpp"

namespace echelon::cluster {

topology::BuiltFabric build_fabric(FabricKind kind, int hosts,
                                   BytesPerSec port_capacity,
                                   double oversubscription) {
  constexpr int kHostsPerLeaf = 8;
  constexpr int kSpines = 2;
  if (hosts < 2) {
    throw std::invalid_argument("fabric: hosts must be >= 2, got " +
                                std::to_string(hosts));
  }
  if (!(std::isfinite(port_capacity) && port_capacity > 0.0)) {
    throw std::invalid_argument(
        "fabric: port capacity must be finite and > 0");
  }
  if (!(std::isfinite(oversubscription) && oversubscription > 0.0)) {
    throw std::invalid_argument(
        "fabric: oversubscription must be finite and > 0");
  }
  if (kind == FabricKind::kBigSwitch) {
    return topology::make_big_switch(hosts, port_capacity);
  }
  if (hosts % kHostsPerLeaf != 0) {
    throw std::invalid_argument(
        "fabric: leaf-spine hosts must be a multiple of 8, got " +
        std::to_string(hosts));
  }
  return topology::make_leaf_spine(
      {.leaves = hosts / kHostsPerLeaf,
       .spines = kSpines,
       .hosts_per_leaf = kHostsPerLeaf,
       .host_link = port_capacity,
       .uplink = kHostsPerLeaf * port_capacity /
                 (kSpines * oversubscription)});
}

namespace {

// Expands one JobSpec into its paradigm's workflow graph on `seat`,
// registering its echelon groups under `id`.
workload::GeneratedJob generate_job_workflow(const JobSpec& spec,
                                             const Seat& seat,
                                             ef::Registry& registry, JobId id) {
  const workload::Placement& placement = seat.placement;
  using workload::Paradigm;
  switch (spec.paradigm) {
    case Paradigm::kDpAllReduce:
      return workload::generate_dp_allreduce(
          {.model = spec.model,
           .gpu = spec.gpu,
           .buckets = spec.buckets,
           .iterations = spec.iterations},
          placement, registry, id);
    case Paradigm::kDpPs:
      return workload::generate_dp_ps({.model = spec.model,
                                       .gpu = spec.gpu,
                                       .buckets = spec.buckets,
                                       .iterations = spec.iterations},
                                      placement, seat.ps_host, seat.ps_worker,
                                      registry, id);
    case Paradigm::kPipeline:
      return workload::generate_pipeline({.model = spec.model,
                                          .gpu = spec.gpu,
                                          .micro_batches = spec.micro_batches,
                                          .iterations = spec.iterations,
                                          .schedule = spec.pp_schedule,
                                          .compute_jitter = spec.compute_jitter,
                                          .jitter_seed = spec.jitter_seed},
                                         placement, registry, id);
    case Paradigm::kTensor:
      return workload::generate_tensor({.model = spec.model,
                                        .gpu = spec.gpu,
                                        .iterations = spec.iterations},
                                       placement, registry, id);
    case Paradigm::kFsdp:
      return workload::generate_fsdp({.model = spec.model,
                                      .gpu = spec.gpu,
                                      .iterations = spec.iterations,
                                      .compute_jitter = spec.compute_jitter,
                                      .jitter_seed = spec.jitter_seed},
                                     placement, registry, id);
    case Paradigm::kExpert:
      return workload::generate_expert({.model = spec.model,
                                        .gpu = spec.gpu,
                                        .iterations = spec.iterations},
                                       placement, registry, id);
  }
  assert(false && "unknown paradigm");
  return {};
}

}  // namespace

Stack::Stack(SchedulerKind scheduler, FabricKind fabric, int hosts,
             BytesPerSec port_capacity, double oversubscription,
             const runtime::CoordinatorConfig& coordinator_config)
    : fabric_(build_fabric(fabric, hosts, port_capacity, oversubscription)),
      sim_(&fabric_.topo) {
  switch (scheduler) {
    case SchedulerKind::kFairSharing:
      policy_ = std::make_unique<netsim::FairSharingScheduler>();
      break;
    case SchedulerKind::kSrpt:
      policy_ = std::make_unique<ef::SrptScheduler>();
      break;
    case SchedulerKind::kCoflowMadd:
      policy_ = std::make_unique<ef::CoflowMaddScheduler>();
      break;
    case SchedulerKind::kSincronia:
      policy_ = std::make_unique<ef::SincroniaScheduler>();
      break;
    case SchedulerKind::kEchelonMadd:
      policy_ = std::make_unique<ef::EchelonMaddScheduler>(
          &standalone_registry_);
      break;
    case SchedulerKind::kCoordinator:
      coordinator_ =
          std::make_unique<runtime::Coordinator>(&sim_, coordinator_config);
      break;
  }
  if (coordinator_) {
    registry_ = &coordinator_->registry();
    scheduler_ = coordinator_.get();
  } else {
    // Attached for tardiness measurement whatever the policy reads.
    standalone_registry_.attach(sim_);
    scheduler_ = policy_.get();
  }
  sim_.set_scheduler(scheduler_);
}

void Stack::observe(obs::TraceSink* sink, obs::TraceDetail detail,
                    obs::MetricsRegistry* metrics) {
  sink_ = sink;
  detail_ = detail;
  if (sink != nullptr && detail != obs::TraceDetail::kOff) {
    sim_.set_trace(sink, detail);
    // kHeuristicRun/kReuseHit and fault events are control-plane kinds.
    if (detail >= obs::TraceDetail::kCoarse) {
      if (coordinator_) coordinator_->set_trace(sink);
      if (injector_) injector_->set_trace(sink);
    }
  }
  if (metrics != nullptr) sim_.set_metrics(metrics);
}

void Stack::arm_faults(const faultsim::FaultPlan* plan) {
  if (plan == nullptr) return;
  injector_ =
      std::make_unique<faultsim::FaultInjector>(&sim_, &fabric_.topo, plan);
  if (sink_ != nullptr && detail_ >= obs::TraceDetail::kCoarse) {
    injector_->set_trace(sink_);
  }
  injector_->arm();
}

Seat Stack::place(const JobSpec& spec) {
  const std::size_t H = fabric_.hosts.size();
  if (static_cast<std::size_t>(spec.ranks) > H) {
    throw std::invalid_argument("job needs " + std::to_string(spec.ranks) +
                                " ranks but the fabric has " +
                                std::to_string(H) + " hosts");
  }
  std::vector<NodeId> hosts;
  hosts.reserve(static_cast<std::size_t>(spec.ranks));
  for (int r = 0; r < spec.ranks; ++r) {
    hosts.push_back(fabric_.hosts[(next_host_ + r) % H]);
  }
  Seat seat{.placement = workload::make_placement(sim_, std::move(hosts))};
  std::size_t consumed = static_cast<std::size_t>(spec.ranks);
  if (spec.paradigm == workload::Paradigm::kDpPs) {
    seat.ps_host = fabric_.hosts[(next_host_ + consumed) % H];
    seat.ps_worker = sim_.add_worker(seat.ps_host);
    ++consumed;
  }
  next_host_ = (next_host_ + consumed) % H;
  return seat;
}

void Stack::build(BuiltJob& job, const JobSpec& spec, const Seat& seat,
                  JobId id,
                  std::function<void(netsim::Simulator&)> on_complete) {
  job.group_begin = registry_->size();
  job.generated = generate_job_workflow(spec, seat, *registry_, id);
  job.group_end = registry_->size();
  job.engine =
      std::make_unique<netsim::WorkflowEngine>(&sim_, &job.generated.workflow);
  job.engine->on_complete = std::move(on_complete);
}

void Stack::retire(BuiltJob& job) {
  job.engine.reset();
  job.generated = {};
  for (std::size_t g = job.group_begin; g < job.group_end; ++g) {
    registry_->get(EchelonFlowId{g}).retire();
  }
}

}  // namespace echelon::cluster
