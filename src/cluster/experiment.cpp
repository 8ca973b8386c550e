#include "cluster/experiment.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "service/service.hpp"

namespace echelon::cluster {

ExperimentResult run_experiment(const std::vector<JobSpec>& jobs,
                                const ExperimentConfig& config) {
  for (std::size_t j = 1; j < jobs.size(); ++j) {
    if (jobs[j].arrival < jobs[j - 1].arrival) {
      throw std::invalid_argument(
          "run_experiment: job " + std::to_string(j) +
          " arrives before job " + std::to_string(j - 1) +
          "; arrivals must not decrease with job index");
    }
  }

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
  // The per-EchelonFlow tardiness distribution: the loop releases finished
  // groups as it goes, in creation order, and the groups still held are
  // added after the run in creation order, so the histogram sees every
  // complete group in creation order.
  obs::Histogram* tard =
      config.metrics != nullptr
          ? &config.metrics->histogram("echelonflow.tardiness_s")
          : nullptr;
  if (tard != nullptr) {
    loop.registry().add_release_listener(
        [tard](const ef::EchelonFlow& g) { tard->observe(g.tardiness()); });
  }
  loop.set_generator(std::make_unique<service::ScheduleArrivalGenerator>(jobs));
  while (loop.step()) {
    result.peak_live_workflows =
        std::max(result.peak_live_workflows, loop.running());
  }
  loop.drain();
  assert(loop.completed() == jobs.size() && "job did not complete");

  const netsim::Simulator& sim = loop.sim();
  const faultsim::FaultInjector* injector = loop.injector();
  const service::ServiceResult run = loop.result();
  result.scheduler_name = run.scheduler_name;
  result.makespan = run.end;
  result.total_tardiness = run.total_tardiness;
  result.weighted_total_tardiness = run.weighted_total_tardiness;
  result.control_invocations = run.control_invocations;
  result.build_ms = loop.build_ms();
  result.wall_ms = run.wall_ms - result.build_ms;
  if (injector) {
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

  // Run-level metrics registry fill (DESIGN.md §9): counters, gauges and
  // the per-EchelonFlow tardiness distribution the paper's objective
  // (Eqs. 1-2) is written in terms of. Pure observation -- nothing above
  // reads the registry.
  if (config.metrics != nullptr) {
    obs::MetricsRegistry& m = *config.metrics;
    m.gauge("sim.makespan_s").set(result.makespan);
    m.gauge("run.wall_ms").set(result.wall_ms);
    m.gauge("echelon.total_tardiness_s").set(result.total_tardiness);
    m.gauge("echelon.weighted_total_tardiness_s")
        .set(result.weighted_total_tardiness);
    m.counter("sim.control_invocations").set(result.control_invocations);
    m.counter("sim.flows").set(sim.flow_count());

    const netsim::RateAllocator::Stats& as = sim.alloc_stats();
    m.counter("alloc.passes").set(as.passes);
    m.counter("alloc.explicit_passes").set(as.explicit_passes);
    m.counter("alloc.components").set(as.components);
    m.counter("alloc.components_filled").set(as.components_filled);
    m.counter("alloc.classes").set(as.classes);
    m.counter("alloc.class_members").set(as.class_members);
    // Fill-work compression from equivalence classing: mean flows per class
    // over everything the fills touched (1.0 = no sharing; higher = fewer
    // water-fill units than flows).
    m.gauge("alloc.flows_per_class")
        .set(as.classes == 0 ? 1.0
                             : static_cast<double>(as.class_members) /
                                   static_cast<double>(as.classes));

    // Control-plane pass counts. Observational only, so deliberately absent
    // from ExperimentResult.
    const netsim::SchedStats& ss = loop.scheduler().sched_stats();
    m.counter("sched.passes").set(ss.passes);
    m.counter("sched.full_passes").set(ss.full_passes);
    m.counter("sched.scoped_passes").set(ss.scoped_passes);
    m.counter("sched.pass_skips").set(ss.pass_skips);

    const topology::RouteTable::Stats& rs = sim.routes().stats();
    m.counter("routes.lookups").set(rs.lookups);
    m.counter("routes.cache_hits").set(rs.hits);
    m.counter("routes.computations").set(rs.computations);
    m.counter("routes.distinct").set(sim.routes().size());

    if (injector) {
      const faultsim::FaultSummary& fs = injector->summary();
      m.counter("fault.events_fired").set(fs.events_fired);
      m.counter("fault.reroutes").set(fs.reroutes);
      m.counter("fault.parks").set(fs.parks);
      m.counter("fault.retries").set(fs.retries);
      m.counter("fault.resumes").set(fs.resumes);
      m.counter("fault.abandoned").set(fs.abandoned);
      m.gauge("fault.downtime_s").set(fs.downtime);
    }

    for (const ef::EchelonFlow* g : loop.registry().all()) {
      if (g->complete()) tard->observe(g->tardiness());
    }
    obs::Histogram& iter = m.histogram("job.iteration_s");
    for (const JobMetrics& jm : result.jobs) {
      for (const Duration it : jm.iteration_times) iter.observe(it);
    }
  }
  return result;
}

}  // namespace echelon::cluster
