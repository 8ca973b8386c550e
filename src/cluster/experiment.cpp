#include "cluster/experiment.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "service/service.hpp"

namespace echelon::cluster {

ExperimentResult run_experiment(const std::vector<JobSpec>& jobs,
                                const ExperimentConfig& config) {
  service::ServiceLoop loop({.scheduler = config.scheduler,
                             .fabric = config.fabric,
                             .hosts = config.hosts,
                             .port_capacity = config.port_capacity,
                             .oversubscription = config.oversubscription,
                             .fault_plan = config.fault_plan,
                             .trace_sink = config.trace_sink,
                             .trace_detail = config.trace_detail,
                             .metrics = config.metrics,
                             .record_flow_finish = false});
  return run_experiment(loop, jobs);
}

ExperimentResult run_experiment(service::ServiceLoop& loop,
                                const std::vector<JobSpec>& jobs) {
  for (std::size_t j = 1; j < jobs.size(); ++j) {
    if (jobs[j].arrival < jobs[j - 1].arrival) {
      throw std::invalid_argument(
          "run_experiment: job " + std::to_string(j) +
          " arrives before job " + std::to_string(j - 1) +
          "; arrivals must not decrease with job index");
    }
  }

  // Launch order is job order (accept-all admission, sorted arrivals), so
  // launch index j is job j. Its iteration times come from the engine's
  // iteration_end barriers before the loop retires the job.
  const std::vector<Seat>& seats = loop.seat_ahead(jobs);
  ExperimentResult result;
  result.jobs.resize(jobs.size());
  loop.set_finish_hook([&](std::size_t j, const BuiltJob& built) {
    JobMetrics& jm = result.jobs[j];
    jm.job = JobId{j};
    jm.paradigm = jobs[j].paradigm;
    jm.description = built.generated.description;
    jm.arrival = jobs[j].arrival;
    SimTime prev = jm.arrival;
    for (const netsim::WfNodeId node : built.generated.iteration_end) {
      const SimTime t = built.engine->node_finish(node);
      jm.iteration_times.push_back(t - prev);
      prev = t;
    }
    jm.finish = prev;
  });
  loop.set_generator(std::make_unique<service::ScheduleArrivalGenerator>(jobs));
  while (loop.step()) {
    result.peak_live_workflows =
        std::max(result.peak_live_workflows, loop.running());
  }
  loop.drain();
  assert(loop.completed() == jobs.size() && "job did not complete");

  const netsim::Simulator& sim = loop.sim();
  const service::ServiceResult run = loop.result();
  result.scheduler_name = run.scheduler_name;
  result.makespan = run.end;
  result.total_tardiness = run.total_tardiness;
  result.weighted_total_tardiness = run.weighted_total_tardiness;
  result.control_invocations = run.control_invocations;
  result.build_ms = loop.build_ms();
  result.wall_ms = run.wall_ms - result.build_ms;
  if (const faultsim::FaultInjector* injector = loop.injector()) {
    const faultsim::FaultSummary& fs = injector->summary();
    result.fault_events = fs.events_fired;
    result.flow_reroutes = fs.reroutes;
    result.flow_parks = fs.parks;
    result.flow_retries = fs.retries;
    result.flows_abandoned = fs.abandoned;
    result.flow_downtime = fs.downtime;
  }

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Seat& seat = seats[j];
    std::size_t workers = seat.placement.workers.size();
    double idle = 0.0;
    for (const WorkerId w : seat.placement.workers) {
      idle += sim.worker(w).idle_fraction();
    }
    if (seat.ps_worker.valid()) {
      idle += sim.worker(seat.ps_worker).idle_fraction();
      ++workers;
    }
    result.jobs[j].mean_gpu_idle_fraction =
        workers == 0 ? 0.0 : idle / static_cast<double>(workers);
  }

  // The loop publishes the run-level metrics (DESIGN.md §9); only the
  // per-iteration distribution is batch-only.
  loop.publish_metrics();
  if (obs::MetricsRegistry* m = loop.config().metrics) {
    obs::Histogram& iter = m->histogram("job.iteration_s");
    for (const JobMetrics& jm : result.jobs) {
      for (const Duration it : jm.iteration_times) iter.observe(it);
    }
  }
  return result;
}

}  // namespace echelon::cluster
