// Cluster experiment runner: places jobs on a shared fabric, runs them under
// a chosen network scheduler, and collects the metrics every bench reports.
// A run is a service::ServiceLoop over the trace (DESIGN.md §13): the batch
// and online drivers are one code path, so `cluster` and `serve` give the
// same results on the same trace.

#pragma once

#include <vector>

#include "cluster/job.hpp"
#include "cluster/metrics.hpp"
#include "cluster/stack.hpp"
#include "common/units.hpp"
#include "faultsim/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace echelon::cluster {

struct ExperimentConfig {
  SchedulerKind scheduler = SchedulerKind::kEchelonMadd;

  // Fabric: `hosts` ports of `port_capacity` each. Jobs are packed
  // rank-by-rank starting at consecutive offsets, so ports are shared
  // between jobs whenever sum(ranks) > hosts (GPU fragmentation, paper §5);
  // a job with more ranks than `hosts` is refused (Stack::place).
  FabricKind fabric = FabricKind::kBigSwitch;
  int hosts = 16;
  BytesPerSec port_capacity = gbps(100);
  // Leaf-spine only: hosts-per-leaf / uplink oversubscription ratio (see
  // build_fabric for the shape).
  double oversubscription = 1.0;

  // Optional deterministic fault script, replayed by a FaultInjector during
  // the run (DESIGN.md §8). Must outlive run_experiment; read-only, so one
  // plan can be shared across sweep threads. nullptr = fault-free. A
  // non-null plan with zero events produces byte-identical results to
  // nullptr (proven by tests/test_faults.cpp).
  const faultsim::FaultPlan* fault_plan = nullptr;

  // --- observability (DESIGN.md §9) ---
  // Optional structured-event sink, threaded into the Simulator, the
  // RateAllocator and the FaultInjector. The emitters only ever *read*
  // simulation state: ExperimentResults with and without a sink are
  // byte-identical (tests/test_obs.cpp pins this). Must outlive
  // run_experiment; nullptr (or kOff) means zero extra work.
  obs::TraceSink* trace_sink = nullptr;
  obs::TraceDetail trace_detail = obs::TraceDetail::kOff;
  // Optional metrics registry: the run samples per-link utilization /
  // active-flow series and flow-completion / queue-depth histograms while it
  // executes, and run_experiment fills run-level counters and gauges
  // (allocator and control-pass counts, route cache, fault summary,
  // per-group tardiness histogram) at the end. Same read-only contract as
  // trace_sink.
  obs::MetricsRegistry* metrics = nullptr;
};

// Runs `jobs` to completion on one shared fabric: a ServiceLoop with
// accept-all admission fed job j at jobs[j].arrival. Arrivals must not
// decrease with job index (std::invalid_argument names the first index that
// does), so launch order is job order and EchelonFlowIds follow job index.
// Every job is placed before the first step (throwing std::invalid_argument
// for a job wider than the fabric), so every WorkerId exists from t = 0 and
// fault plans can target workers. A job's workflow is built when it arrives
// and freed, with its EchelonFlows retired, at the end of the step it
// finished in, so memory follows live jobs, not the trace. In the result:
//   makespan            -- the last job completion;
//   wall_ms             -- host time of the run, excluding build_ms;
//   build_ms            -- host time spent building arrived jobs'
//                          workflows and freeing finished ones;
//   peak_live_workflows -- most workflows held after a step
//                          (deterministic).
[[nodiscard]] ExperimentResult run_experiment(const std::vector<JobSpec>& jobs,
                                              const ExperimentConfig& config);

}  // namespace echelon::cluster
