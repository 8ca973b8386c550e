#include "cluster/experiment.hpp"

#include <algorithm>
#include <cassert>

#include "common/timer.hpp"

namespace echelon::cluster {

namespace {

// One job of the trace. Its workflow and engine are held only from the
// job's build until it is retired after finishing.
struct LiveJob {
  JobSpec spec;
  Seat seat;
  JobMetrics metrics;
  bool done = false;
  BuiltJob built;
};

// Fills everything of lj.metrics the engine knows: iteration times from the
// iteration_end barriers and the finish of the last one.
void record_job_metrics(LiveJob& lj, JobId id) {
  JobMetrics& jm = lj.metrics;
  jm.job = id;
  jm.paradigm = lj.spec.paradigm;
  jm.description = lj.built.generated.description;
  jm.arrival = lj.spec.arrival;
  SimTime prev = lj.spec.arrival;
  for (const netsim::WfNodeId node : lj.built.generated.iteration_end) {
    const SimTime t = lj.built.engine->node_finish(node);
    jm.iteration_times.push_back(t - prev);
    prev = t;
  }
  jm.finish = prev;
}

}  // namespace

ExperimentResult run_experiment(const std::vector<JobSpec>& jobs,
                                const ExperimentConfig& config) {
  Stack stack(config.scheduler, config.fabric, config.hosts,
              config.port_capacity, config.oversubscription);
  stack.observe(config.trace_sink, config.trace_detail, config.metrics);
  netsim::Simulator& sim = stack.sim();

  // Place every job, in index order, before the run, so every WorkerId is
  // fixed here. Workflows are built later.
  std::vector<LiveJob> live(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    live[j].spec = jobs[j];
    live[j].seat = stack.place(jobs[j]);
  }
  stack.arm_faults(config.fault_plan);

  // Workflow lifetime (DESIGN.md §13). Job j's workflow is built in its
  // arrival event, or earlier: an arrival first builds every unbuilt job of
  // lower index, so EchelonFlowIds keep index order whatever the arrival
  // order. A finished job is only queued by on_complete, which fires inside
  // its engine's node_done; the next arrival, or the end of the run, frees
  // its workflow and engine and retires its EchelonFlows.
  std::size_t next_build = 0;  // jobs [0, next_build) have been built
  std::size_t held = 0;        // workflows built and not yet freed
  std::vector<std::size_t> finished;
  double build_ms = 0.0;
  std::size_t peak_live = 0;

  const auto build = [&](std::size_t j) {
    LiveJob& lj = live[j];
    stack.build(lj.built, lj.spec, lj.seat, JobId{j},
                [&lj, &finished, j](netsim::Simulator&) {
                  record_job_metrics(lj, JobId{j});
                  lj.done = true;
                  finished.push_back(j);
                });
    ++held;
  };
  const auto free_finished = [&] {
    for (const std::size_t j : finished) {
      stack.retire(live[j].built);
      --held;
    }
    finished.clear();
  };

  // One arrival event per job, scheduled in index order after the fault
  // plan's: same-instant ties resolve faults first, then jobs by index.
  // Building a workflow schedules nothing, so event sequence numbers do not
  // depend on when it happens. Building and freeing are timed and kept out
  // of wall_ms.
  for (std::size_t j = 0; j < live.size(); ++j) {
    sim.schedule_at(live[j].spec.arrival, [&, j](netsim::Simulator&) {
      const ScopedTimer build_timer;
      free_finished();
      for (; next_build <= j; ++next_build) build(next_build);
      build_ms += build_timer.elapsed_ms();
      peak_live = std::max(peak_live, held);
      live[j].built.engine->start();
    });
  }

  const ScopedTimer wall_timer;
  const SimTime end = sim.run();
  const double wall_ms = wall_timer.elapsed_ms() - build_ms;
  free_finished();

  // Collect metrics.
  const ef::Registry& registry = stack.registry();
  const faultsim::FaultInjector* injector = stack.injector();
  ExperimentResult result;
  result.scheduler_name = stack.scheduler().name();
  result.makespan = end;
  result.total_tardiness = registry.total_tardiness();
  result.weighted_total_tardiness = registry.weighted_total_tardiness();
  result.control_invocations = sim.control_invocations();
  result.wall_ms = wall_ms;
  result.build_ms = build_ms;
  result.peak_live_workflows = peak_live;
  if (injector) {
    const faultsim::FaultSummary& fs = injector->summary();
    result.fault_events = fs.events_fired;
    result.flow_reroutes = fs.reroutes;
    result.flow_parks = fs.parks;
    result.flow_retries = fs.retries;
    result.flows_abandoned = fs.abandoned;
    result.flow_downtime = fs.downtime;
  }

  for (std::size_t j = 0; j < live.size(); ++j) {
    LiveJob& lj = live[j];
    if (!lj.done) {
      // Never finished: its engine is still held, so read what it has.
      assert(lj.built.engine->finished() && "job did not complete");
      record_job_metrics(lj, JobId{j});
    }
    JobMetrics& jm = lj.metrics;
    std::size_t workers = lj.seat.placement.workers.size();
    double idle = 0.0;
    for (const WorkerId w : lj.seat.placement.workers) {
      idle += sim.worker(w).idle_fraction();
    }
    if (lj.seat.ps_worker.valid()) {
      idle += sim.worker(lj.seat.ps_worker).idle_fraction();
      ++workers;
    }
    jm.mean_gpu_idle_fraction =
        workers == 0 ? 0.0 : idle / static_cast<double>(workers);
    result.jobs.push_back(std::move(jm));
  }

  // Run-level metrics registry fill (DESIGN.md §9): counters, gauges and
  // the per-EchelonFlow tardiness distribution the paper's objective
  // (Eqs. 1-2) is written in terms of. Pure observation -- nothing above
  // reads the registry.
  if (config.metrics != nullptr) {
    obs::MetricsRegistry& m = *config.metrics;
    m.gauge("sim.makespan_s").set(end);
    m.gauge("run.wall_ms").set(result.wall_ms);
    m.gauge("echelon.total_tardiness_s").set(result.total_tardiness);
    m.gauge("echelon.weighted_total_tardiness_s")
        .set(result.weighted_total_tardiness);
    m.counter("sim.control_invocations").set(sim.control_invocations());
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
    const netsim::SchedStats& ss = stack.scheduler().sched_stats();
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

    obs::Histogram& tard = m.histogram("echelonflow.tardiness_s");
    for (const ef::EchelonFlow* g : registry.all()) {
      if (g->complete()) tard.observe(g->tardiness());
    }
    obs::Histogram& iter = m.histogram("job.iteration_s");
    for (const JobMetrics& jm : result.jobs) {
      for (const Duration it : jm.iteration_times) iter.observe(it);
    }
  }
  return result;
}

}  // namespace echelon::cluster
