// Cluster experiment runner: places jobs on a shared fabric, runs them under
// a chosen network scheduler, and collects the metrics every bench reports.

#pragma once

#include <vector>

#include "cluster/job.hpp"
#include "cluster/metrics.hpp"
#include "common/units.hpp"
#include "echelon/echelon_madd.hpp"
#include "faultsim/fault_plan.hpp"
#include "netsim/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/coordinator.hpp"
#include "topology/builders.hpp"

namespace echelon::cluster {

enum class SchedulerKind {
  kFairSharing,
  kSrpt,         // pFabric-style per-flow shortest-remaining-first
  kCoflowMadd,
  kSincronia,    // order-first BSSI + greedy rate assignment
  kEchelonMadd,
  kCoordinator,  // EchelonFlow-MADD behind the runtime Coordinator
};

[[nodiscard]] constexpr const char* to_string(SchedulerKind k) noexcept {
  switch (k) {
    case SchedulerKind::kFairSharing: return "fair";
    case SchedulerKind::kSrpt: return "srpt";
    case SchedulerKind::kCoflowMadd: return "coflow-madd";
    case SchedulerKind::kSincronia: return "sincronia";
    case SchedulerKind::kEchelonMadd: return "echelonflow-madd";
    case SchedulerKind::kCoordinator: return "coordinator";
  }
  return "?";
}

enum class FabricKind {
  kBigSwitch,  // non-blocking crossbar (Coflow-literature default)
  kLeafSpine,  // two-tier Clos; oversubscription makes the core contend
};

// The one place a FabricKind becomes a topology, shared by run_experiment,
// the online service, the CLI and the tests. A big switch gets `hosts` ports
// of `port_capacity`; a leaf-spine gets hosts/8 leaves of 8 hosts and 2
// spines whose uplinks carry 8 * port_capacity / (2 * oversubscription)
// each. Throws std::invalid_argument when hosts < 2, when a leaf-spine host
// count is not a multiple of 8, or when port_capacity or oversubscription is
// <= 0 or not finite.
[[nodiscard]] topology::BuiltFabric build_fabric(FabricKind kind, int hosts,
                                                 BytesPerSec port_capacity,
                                                 double oversubscription);

struct ExperimentConfig {
  SchedulerKind scheduler = SchedulerKind::kEchelonMadd;

  // Fabric: `hosts` ports of `port_capacity` each. Jobs are packed
  // rank-by-rank starting at consecutive offsets, so ports are shared
  // between jobs whenever sum(ranks) > hosts (GPU fragmentation, paper §5).
  FabricKind fabric = FabricKind::kBigSwitch;
  int hosts = 16;
  BytesPerSec port_capacity = gbps(100);
  // Leaf-spine only: hosts-per-leaf / uplink oversubscription ratio (see
  // build_fabric for the shape).
  double oversubscription = 1.0;

  // Scheduler knobs.
  ef::EchelonMaddConfig echelon;
  bool coflow_work_conserving = true;
  runtime::CoordinatorConfig coordinator;

  // Wrap the policy in K-queue priority enforcement (0 = exact rates).
  int priority_queues = 0;

  // Optional deterministic fault script, replayed by a FaultInjector during
  // the run (DESIGN.md §8). Must outlive run_experiment; read-only, so one
  // plan can be shared across sweep threads. nullptr = fault-free. A
  // non-null plan with zero events produces byte-identical results to
  // nullptr (proven by tests/test_faults.cpp).
  const faultsim::FaultPlan* fault_plan = nullptr;

  // --- observability (DESIGN.md §9) ---
  // Optional structured-event sink, threaded into the Simulator, the
  // RateAllocator, the Coordinator and the FaultInjector. The emitters only
  // ever *read* simulation state: ExperimentResults with and without a sink
  // are byte-identical (tests/test_obs.cpp pins this). Must outlive
  // run_experiment; nullptr (or kOff) means zero extra work.
  obs::TraceSink* trace_sink = nullptr;
  obs::TraceDetail trace_detail = obs::TraceDetail::kOff;
  // Optional metrics registry: the run samples per-link utilization /
  // active-flow series and flow-completion / queue-depth histograms while it
  // executes, and run_experiment fills run-level counters and gauges
  // (allocator cache behaviour, coordinator stats, fault summary, per-group
  // tardiness histogram) at the end. Same read-only contract as trace_sink.
  obs::MetricsRegistry* metrics = nullptr;
};

// Runs `jobs` to completion on one shared fabric. Every job is placed before
// the run, but its workflow is built in its arrival event (together with any
// unbuilt job of lower index, so EchelonFlowIds follow job index) and freed,
// with its EchelonFlows retired, at the first arrival after it finishes or
// at the end of the run. Memory therefore follows live jobs, not the trace.
// In the result:
//   wall_ms             -- host time of the simulation, excluding build_ms;
//   build_ms            -- host time the arrival events spent building and
//                          freeing workflows;
//   peak_live_workflows -- most workflows held after an arrival event
//                          (deterministic).
[[nodiscard]] ExperimentResult run_experiment(const std::vector<JobSpec>& jobs,
                                              const ExperimentConfig& config);

// Expands one JobSpec into its paradigm's workflow graph on the given
// placement, registering echelon groups under `id`. `ps_host`/`ps_worker`
// are only consumed by the DP-PS paradigm (the parameter-server endpoint).
// Shared by run_experiment's arrival-time build and the online service's
// incremental job launch (src/service): both must expand jobs identically
// for batch and streaming runs to be comparable.
[[nodiscard]] workload::GeneratedJob generate_job_workflow(
    const JobSpec& spec, const workload::Placement& placement, NodeId ps_host,
    WorkerId ps_worker, ef::Registry& registry, JobId id);

}  // namespace echelon::cluster
