// The cluster control plane (DESIGN.md §13): fabric, Simulator, scheduler
// stack and EchelonFlow registry, fault injector, placement rule and job
// build/retire lifecycle. service::ServiceLoop runs one, online or over a
// batch trace (run_experiment).

#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>

#include "cluster/job.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"
#include "echelon/registry.hpp"
#include "faultsim/fault_plan.hpp"
#include "faultsim/injector.hpp"
#include "netsim/simulator.hpp"
#include "netsim/workflow.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "topology/builders.hpp"
#include "workload/paradigm.hpp"

namespace echelon::cluster {

enum class SchedulerKind {
  kFairSharing,
  kSrpt,         // pFabric-style per-flow shortest-remaining-first
  kCoflowMadd,
  kSincronia,    // order-first BSSI + greedy rate assignment
  kEchelonMadd,
  kAalo,         // non-clairvoyant Coflow queues (last, so the values
                 // snapshots store do not move)
};

[[nodiscard]] constexpr const char* to_string(SchedulerKind k) noexcept {
  switch (k) {
    case SchedulerKind::kFairSharing: return "fair";
    case SchedulerKind::kSrpt: return "srpt";
    case SchedulerKind::kCoflowMadd: return "coflow-madd";
    case SchedulerKind::kSincronia: return "sincronia";
    case SchedulerKind::kEchelonMadd: return "echelonflow-madd";
    case SchedulerKind::kAalo: return "aalo";
  }
  return "?";
}

// The one name -> scheduler table: a --scheduler name (fair|srpt|aalo|
// coflow|sincronia|echelonflow) or any to_string() name.
// nullopt for anything else.
[[nodiscard]] std::optional<SchedulerKind> scheduler_from_string(
    std::string_view name) noexcept;

// The policy a Stack runs for `kind`, reading tardiness declarations from
// `registry` where it uses them (EchelonFlow-MADD). Hand-built simulations
// use it to get the Stack's scheduler classes.
[[nodiscard]] std::unique_ptr<netsim::NetworkScheduler> make_policy(
    SchedulerKind kind, const ef::Registry* registry);

enum class FabricKind {
  kBigSwitch,  // non-blocking crossbar (Coflow-literature default)
  kLeafSpine,  // two-tier Clos; oversubscription makes the core contend
};

// The one place a FabricKind becomes a topology, shared by the Stack, the
// CLI and the tests. A big switch gets `hosts` ports of `port_capacity`; a
// leaf-spine gets hosts/8 leaves of 8 hosts and 2 spines whose uplinks carry
// 8 * port_capacity / (2 * oversubscription) each. Throws
// std::invalid_argument when hosts < 2, when a leaf-spine host count is not
// a multiple of 8, or when port_capacity or oversubscription is <= 0 or not
// finite.
[[nodiscard]] topology::BuiltFabric build_fabric(FabricKind kind, int hosts,
                                                 BytesPerSec port_capacity,
                                                 double oversubscription);

// A worker per rank, plus the DP-PS parameter server (invalid otherwise).
struct Seat {
  workload::Placement placement;
  NodeId ps_host;
  WorkerId ps_worker;
};

// A built job: workflow, engine and the EchelonFlow id range
// [group_begin, group_end) it registered; retire() keeps only the range.
struct BuiltJob {
  std::size_t group_begin = 0;
  std::size_t group_end = 0;
  workload::GeneratedJob generated;
  std::unique_ptr<netsim::WorkflowEngine> engine;
};

// Callers run the constructor (fabric, Simulator, scheduler, registry
// attach), observe(), arm_faults(), then place()/build()/retire() as jobs
// come and go, so plan events are queued before any job's and same-instant
// ties resolve fault-first. place() schedules nothing: seat jobs any time.
class Stack {
 public:
  // Builds the fabric as build_fabric does, throwing what it throws.
  Stack(SchedulerKind scheduler, FabricKind fabric, int hosts,
        BytesPerSec port_capacity, double oversubscription);

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  // Wires the read-only emitters (DESIGN.md §9): the sink into the
  // Simulator and, at >= kCoarse, into the injector; `metrics` into the
  // Simulator. Null or kOff leaves that part as it was.
  void observe(obs::TraceSink* sink, obs::TraceDetail detail,
               obs::MetricsRegistry* metrics);

  // Arms an injector for `plan` (nullptr = fault-free; must outlive the
  // Stack), tracing into observe()'s sink at >= kCoarse.
  void arm_faults(const faultsim::FaultPlan* plan);

  // Seats the ranks on consecutive hosts from a wrapping cursor, and a DP-PS
  // parameter server on the next one, so jobs share hosts once the fabric
  // is full (GPU fragmentation, paper §5). Throws std::invalid_argument,
  // placing nothing and naming the field, for a job its paradigm's
  // generator cannot take: ranks < 2 (< 1 for DP-PS), iterations < 1,
  // micro_batches < 1 (PP), buckets outside [1, layers] (DP, DP-PS), a
  // model without layers, more PP stages than layers. Likewise for a job
  // with more ranks than the fabric has hosts.
  [[nodiscard]] Seat place(const JobSpec& spec);

  // Expands `spec` into its paradigm's workflow on `seat`, registering its
  // EchelonFlows under `id`, and creates its engine. Schedules nothing.
  void build(BuiltJob& job, const JobSpec& spec, const Seat& seat, JobId id,
             std::function<void(netsim::Simulator&)> on_complete);

  // Frees a finished job's engine and workflow and retires its EchelonFlows,
  // whose tardiness is final (an abandoned flow finishes too); the registry
  // releases each once every earlier one is released. Not from the job's
  // own on_complete, which fires inside the engine's node_done.
  void retire(BuiltJob& job);

  [[nodiscard]] netsim::Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] const netsim::Simulator& sim() const noexcept { return sim_; }
  [[nodiscard]] const ef::Registry& registry() const noexcept {
    return registry_;
  }
  // For declaring EchelonFlows outside build(): the §5 agent registers its
  // framework's requests here.
  [[nodiscard]] ef::Registry& registry() noexcept { return registry_; }
  [[nodiscard]] const netsim::NetworkScheduler& scheduler() const noexcept {
    return *policy_;
  }
  // nullptr until arm_faults() gets a plan.
  [[nodiscard]] const faultsim::FaultInjector* injector() const noexcept {
    return injector_.get();
  }
  // Host index the next place() starts from.
  [[nodiscard]] std::size_t next_host() const noexcept { return next_host_; }

 private:
  topology::BuiltFabric fabric_;
  netsim::Simulator sim_;
  // Every scheduler measures tardiness here; EchelonFlow-MADD also reads
  // its deadlines from it.
  ef::Registry registry_;
  std::unique_ptr<netsim::NetworkScheduler> policy_;
  std::unique_ptr<faultsim::FaultInjector> injector_;
  obs::TraceSink* sink_ = nullptr;
  obs::TraceDetail detail_ = obs::TraceDetail::kOff;
  std::size_t next_host_ = 0;
};

}  // namespace echelon::cluster
