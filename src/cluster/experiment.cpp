#include "cluster/experiment.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "common/pool.hpp"
#include "common/timer.hpp"
#include "echelon/coflow_madd.hpp"
#include "echelon/sincronia.hpp"
#include "echelon/srpt.hpp"
#include "faultsim/injector.hpp"
#include "netsim/workflow.hpp"
#include "runtime/priority_queue.hpp"
#include "topology/builders.hpp"
#include "workload/dp.hpp"
#include "workload/ep.hpp"
#include "workload/fsdp.hpp"
#include "workload/tp.hpp"

namespace echelon::cluster {

workload::GeneratedJob generate_job_workflow(const JobSpec& spec,
                                             const workload::Placement& placement,
                                             NodeId ps_host, WorkerId ps_worker,
                                             ef::Registry& registry, JobId id) {
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
                                      placement, ps_host, ps_worker, registry,
                                      id);
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

namespace {

// One job of the trace. `generated` and `engine` are held only from the
// job's build until it is freed after finishing.
struct LiveJob {
  JobSpec spec;
  workload::Placement placement;
  NodeId ps_host;
  WorkerId ps_worker;
  // EchelonFlow id range [group_begin, group_end) the build created.
  std::size_t group_begin = 0;
  std::size_t group_end = 0;
  JobMetrics metrics;
  bool done = false;
  workload::GeneratedJob generated;
  std::unique_ptr<netsim::WorkflowEngine> engine;
};

// Fills everything of lj.metrics the engine knows: iteration times from the
// iteration_end barriers and the finish of the last one.
void record_job_metrics(LiveJob& lj, JobId id) {
  JobMetrics& jm = lj.metrics;
  jm.job = id;
  jm.paradigm = lj.spec.paradigm;
  jm.description = lj.generated.description;
  jm.arrival = lj.spec.arrival;
  SimTime prev = lj.spec.arrival;
  for (const netsim::WfNodeId node : lj.generated.iteration_end) {
    const SimTime t = lj.engine->node_finish(node);
    jm.iteration_times.push_back(t - prev);
    prev = t;
  }
  jm.finish = prev;
}

}  // namespace

ExperimentResult run_experiment(const std::vector<JobSpec>& jobs,
                                const ExperimentConfig& config) {
  assert(config.hosts >= 2);
  topology::BuiltFabric fabric;
  if (config.fabric == FabricKind::kBigSwitch) {
    fabric = topology::make_big_switch(config.hosts, config.port_capacity);
  } else {
    const int hosts_per_leaf = 8;
    const int leaves = std::max(1, config.hosts / hosts_per_leaf);
    const int spines = 2;
    fabric = topology::make_leaf_spine(
        {.leaves = leaves,
         .spines = spines,
         .hosts_per_leaf = hosts_per_leaf,
         .host_link = config.port_capacity,
         .uplink = hosts_per_leaf * config.port_capacity /
                   (spines * config.oversubscription)});
  }
  netsim::Simulator sim(&fabric.topo);

  // Scheduler stack. The coordinator owns its registry; other schedulers
  // share a standalone one (attached for tardiness measurement either way).
  ef::Registry standalone_registry;
  std::unique_ptr<runtime::Coordinator> coordinator;
  std::unique_ptr<netsim::NetworkScheduler> policy;
  ef::Registry* registry = &standalone_registry;

  switch (config.scheduler) {
    case SchedulerKind::kFairSharing:
      policy = std::make_unique<netsim::FairSharingScheduler>();
      standalone_registry.attach(sim);
      break;
    case SchedulerKind::kSrpt:
      policy = std::make_unique<ef::SrptScheduler>();
      standalone_registry.attach(sim);
      break;
    case SchedulerKind::kCoflowMadd:
      policy = std::make_unique<ef::CoflowMaddScheduler>(
          ef::CoflowMaddConfig{.work_conserving =
                                   config.coflow_work_conserving});
      standalone_registry.attach(sim);
      break;
    case SchedulerKind::kSincronia:
      policy = std::make_unique<ef::SincroniaScheduler>();
      standalone_registry.attach(sim);
      break;
    case SchedulerKind::kEchelonMadd:
      policy = std::make_unique<ef::EchelonMaddScheduler>(&standalone_registry,
                                                          config.echelon);
      standalone_registry.attach(sim);
      break;
    case SchedulerKind::kCoordinator:
      coordinator = std::make_unique<runtime::Coordinator>(
          &sim, config.coordinator);
      registry = &coordinator->registry();
      break;
  }

  netsim::NetworkScheduler* scheduler =
      coordinator ? static_cast<netsim::NetworkScheduler*>(coordinator.get())
                  : policy.get();
  std::unique_ptr<runtime::PriorityQueueEnforcer> pq;
  if (config.priority_queues > 0) {
    pq = std::make_unique<runtime::PriorityQueueEnforcer>(
        scheduler,
        runtime::PriorityQueueConfig{.num_queues = config.priority_queues});
    scheduler = pq.get();
  }
  sim.set_scheduler(scheduler);

  // Intra-run parallelism wiring (DESIGN.md §10): hand the process-wide
  // shared pool to the simulator's allocator water-fill. threads == 1 leaves
  // everything serial and never touches the pool. Safe under run_sweep:
  // nested dispatches from pool workers run inline-serially.
  if (config.threads != 1) {
    sim.set_parallelism(&ThreadPool::shared(), config.threads);
  }

  // Observability wiring (DESIGN.md §9): read-only emitters, null-guarded at
  // every site. The coordinator's kHeuristicRun/kReuseHit and the fault
  // injector's events are control-plane kinds, gated at kCoarse.
  if (config.trace_sink != nullptr &&
      config.trace_detail != obs::TraceDetail::kOff) {
    sim.set_trace(config.trace_sink, config.trace_detail);
    if (coordinator && config.trace_detail >= obs::TraceDetail::kCoarse) {
      coordinator->set_trace(config.trace_sink);
    }
  }
  if (config.metrics != nullptr) sim.set_metrics(config.metrics);

  // Place every job, in index order, before the run: ranks are packed onto
  // consecutive ports (wrapping), so jobs share ports once the cluster is
  // loaded, and every WorkerId is fixed here. Workflows are built later.
  std::vector<LiveJob> live(jobs.size());
  std::size_t next_host = 0;
  const std::size_t H = fabric.hosts.size();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    LiveJob& lj = live[j];
    lj.spec = jobs[j];
    assert(static_cast<std::size_t>(lj.spec.ranks) <= H &&
           "job does not fit the cluster");

    std::vector<NodeId> job_hosts;
    job_hosts.reserve(static_cast<std::size_t>(lj.spec.ranks));
    for (int r = 0; r < lj.spec.ranks; ++r) {
      job_hosts.push_back(fabric.hosts[(next_host + r) % H]);
    }
    lj.placement = workload::make_placement(sim, job_hosts,
                                            "j" + std::to_string(j) + ".");

    std::size_t consumed = static_cast<std::size_t>(lj.spec.ranks);
    if (lj.spec.paradigm == workload::Paradigm::kDpPs) {
      lj.ps_host = fabric.hosts[(next_host + consumed) % H];
      lj.ps_worker =
          sim.add_worker(lj.ps_host, "j" + std::to_string(j) + ".ps");
      ++consumed;
    }
    next_host = (next_host + consumed) % H;
  }

  // Arm fault injection (if any) before anything is scheduled: plan events
  // land in the queue ahead of job arrivals, so same-instant ties resolve
  // fault-first, deterministically.
  std::unique_ptr<faultsim::FaultInjector> injector;
  if (config.fault_plan != nullptr) {
    injector = std::make_unique<faultsim::FaultInjector>(&sim, &fabric.topo,
                                                         config.fault_plan);
    if (config.trace_sink != nullptr &&
        config.trace_detail >= obs::TraceDetail::kCoarse) {
      injector->set_trace(config.trace_sink);
    }
    injector->arm();
  }

  // Workflow lifetime (DESIGN.md §13). Job j's workflow is built in its
  // arrival event, or earlier: an arrival first builds every unbuilt job of
  // lower index, so EchelonFlowIds keep index order whatever the arrival
  // order. A finished job is only queued by on_complete, which fires inside
  // its engine's node_done; the next arrival, or the end of the run, frees
  // its workflow and engine and retires its EchelonFlows.
  std::size_t built = 0;  // jobs [0, built) have been built
  std::size_t held = 0;   // workflows built and not yet freed
  std::vector<std::size_t> finished;
  double build_ms = 0.0;
  std::size_t peak_live = 0;

  const auto build = [&](std::size_t j) {
    LiveJob& lj = live[j];
    lj.group_begin = registry->size();
    lj.generated = generate_job_workflow(lj.spec, lj.placement, lj.ps_host,
                                         lj.ps_worker, *registry, JobId{j});
    lj.group_end = registry->size();
    lj.engine =
        std::make_unique<netsim::WorkflowEngine>(&sim, &lj.generated.workflow);
    lj.engine->on_complete = [&lj, &finished, j](netsim::Simulator&) {
      record_job_metrics(lj, JobId{j});
      lj.done = true;
      finished.push_back(j);
    };
    ++held;
  };
  const auto free_finished = [&] {
    for (const std::size_t j : finished) {
      LiveJob& lj = live[j];
      lj.engine.reset();
      lj.generated = {};
      // Every member of a finished job's groups has finished (an abandoned
      // flow finishes too), so each group's tardiness is final.
      for (std::size_t g = lj.group_begin; g < lj.group_end; ++g) {
        registry->get(EchelonFlowId{g}).retire();
      }
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
      for (; built <= j; ++built) build(built);
      build_ms += build_timer.elapsed_ms();
      peak_live = std::max(peak_live, held);
      live[j].engine->start();
    });
  }

  const ScopedTimer wall_timer;
  const SimTime end = sim.run();
  const double wall_ms = wall_timer.elapsed_ms() - build_ms;
  free_finished();

  // Collect metrics.
  ExperimentResult result;
  result.scheduler_name = scheduler->name();
  result.makespan = end;
  result.total_tardiness = registry->total_tardiness();
  result.weighted_total_tardiness = registry->weighted_total_tardiness();
  result.control_invocations = sim.control_invocations();
  if (coordinator) {
    result.heuristic_runs = coordinator->heuristic_runs();
    result.reuse_hits = coordinator->reuse_hits();
  }
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
      assert(lj.engine->finished() && "job did not complete");
      record_job_metrics(lj, JobId{j});
    }
    JobMetrics& jm = lj.metrics;
    std::size_t workers = lj.placement.workers.size();
    double idle = 0.0;
    for (const WorkerId w : lj.placement.workers) {
      idle += sim.worker(w).idle_fraction();
    }
    if (lj.ps_worker.valid()) {
      idle += sim.worker(lj.ps_worker).idle_fraction();
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
    const netsim::SchedStats& ss = scheduler->sched_stats();
    m.counter("sched.passes").set(ss.passes);
    m.counter("sched.full_passes").set(ss.full_passes);
    m.counter("sched.scoped_passes").set(ss.scoped_passes);
    m.counter("sched.pass_skips").set(ss.pass_skips);

    const topology::RouteTable::Stats& rs = sim.routes().stats();
    m.counter("routes.lookups").set(rs.lookups);
    m.counter("routes.cache_hits").set(rs.hits);
    m.counter("routes.computations").set(rs.computations);
    m.counter("routes.distinct").set(sim.routes().size());

    if (coordinator) {
      m.counter("coordinator.heuristic_runs")
          .set(coordinator->heuristic_runs());
      m.counter("coordinator.reuse_hits").set(coordinator->reuse_hits());
      m.counter("coordinator.deferred_flows")
          .set(coordinator->deferred_flows());
    }
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
    for (const ef::EchelonFlow* g : registry->all()) {
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
