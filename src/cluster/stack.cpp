#include "cluster/stack.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "echelon/aalo.hpp"
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

std::optional<SchedulerKind> scheduler_from_string(
    std::string_view name) noexcept {
  if (name == "coflow") return SchedulerKind::kCoflowMadd;
  if (name == "echelonflow") return SchedulerKind::kEchelonMadd;
  for (const SchedulerKind k :
       {SchedulerKind::kFairSharing, SchedulerKind::kSrpt,
        SchedulerKind::kCoflowMadd, SchedulerKind::kSincronia,
        SchedulerKind::kEchelonMadd, SchedulerKind::kAalo}) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

std::unique_ptr<netsim::NetworkScheduler> make_policy(
    SchedulerKind kind, const ef::Registry* registry) {
  switch (kind) {
    case SchedulerKind::kFairSharing:
      return std::make_unique<netsim::FairSharingScheduler>();
    case SchedulerKind::kSrpt:
      return std::make_unique<ef::SrptScheduler>();
    case SchedulerKind::kCoflowMadd:
      return std::make_unique<ef::CoflowMaddScheduler>();
    case SchedulerKind::kSincronia:
      return std::make_unique<ef::SincroniaScheduler>();
    case SchedulerKind::kEchelonMadd:
      return std::make_unique<ef::EchelonMaddScheduler>(registry);
    case SchedulerKind::kAalo:
      return std::make_unique<ef::AaloScheduler>();
  }
  throw std::invalid_argument("unknown scheduler kind " +
                              std::to_string(static_cast<int>(kind)));
}

namespace {

// Throws std::invalid_argument naming the first field of `spec` that its
// paradigm's generator cannot take (their own checks are asserts).
void check_spec(const JobSpec& spec) {
  using workload::Paradigm;
  const auto reject = [](const std::string& what) {
    throw std::invalid_argument("job " + what);
  };
  const int min_ranks = spec.paradigm == Paradigm::kDpPs ? 1 : 2;
  if (spec.ranks < min_ranks) {
    reject("ranks must be >= " + std::to_string(min_ranks) + " for " +
           workload::to_string(spec.paradigm) + ", got " +
           std::to_string(spec.ranks));
  }
  if (spec.iterations < 1) {
    reject("iterations must be >= 1, got " + std::to_string(spec.iterations));
  }
  const std::size_t layers = spec.model.layer_count();
  if (layers == 0) reject("model has no layers");
  switch (spec.paradigm) {
    case Paradigm::kDpAllReduce:
    case Paradigm::kDpPs:
      if (spec.buckets < 1 ||
          static_cast<std::size_t>(spec.buckets) > layers) {
        reject("buckets must be in [1, " + std::to_string(layers) +
               "] (the model's layers), got " + std::to_string(spec.buckets));
      }
      break;
    case Paradigm::kPipeline:
      if (spec.micro_batches < 1) {
        reject("micro_batches must be >= 1, got " +
               std::to_string(spec.micro_batches));
      }
      if (static_cast<std::size_t>(spec.ranks) > layers) {
        reject("ranks must be <= the model's " + std::to_string(layers) +
               " layers for PP (one stage per rank), got " +
               std::to_string(spec.ranks));
      }
      break;
    case Paradigm::kTensor:
    case Paradigm::kFsdp:
    case Paradigm::kExpert:
      break;
  }
}

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
             BytesPerSec port_capacity, double oversubscription)
    : fabric_(build_fabric(fabric, hosts, port_capacity, oversubscription)),
      sim_(&fabric_.topo),
      policy_(make_policy(scheduler, &registry_)) {
  // Attached for tardiness measurement whatever the policy reads.
  registry_.attach(sim_);
  sim_.set_scheduler(policy_.get());
}

void Stack::observe(obs::TraceSink* sink, obs::TraceDetail detail,
                    obs::MetricsRegistry* metrics) {
  sink_ = sink;
  detail_ = detail;
  if (sink != nullptr && detail != obs::TraceDetail::kOff) {
    sim_.set_trace(sink, detail);
    // Fault events are a control-plane kind.
    if (detail >= obs::TraceDetail::kCoarse && injector_) {
      injector_->set_trace(sink);
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
  check_spec(spec);
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
  job.group_begin = registry_.size();
  job.generated = generate_job_workflow(spec, seat, registry_, id);
  job.group_end = registry_.size();
  job.engine =
      std::make_unique<netsim::WorkflowEngine>(&sim_, &job.generated.workflow);
  job.engine->on_complete = std::move(on_complete);
}

void Stack::retire(BuiltJob& job) {
  job.engine.reset();
  job.generated = {};
  for (std::size_t g = job.group_begin; g < job.group_end; ++g) {
    registry_.retire(EchelonFlowId{g});
  }
}

}  // namespace echelon::cluster
