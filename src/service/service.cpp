#include "service/service.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "common/pool.hpp"
#include "common/timer.hpp"
#include "echelon/coflow_madd.hpp"
#include "echelon/sincronia.hpp"
#include "echelon/srpt.hpp"
#include "workload/paradigm.hpp"

namespace echelon::service {

namespace {

topology::BuiltFabric make_fabric(const ServiceConfig& config) {
  if (config.hosts < 2) {
    throw std::invalid_argument("ServiceLoop: hosts must be >= 2");
  }
  if (config.fabric == cluster::FabricKind::kBigSwitch) {
    return topology::make_big_switch(config.hosts, config.port_capacity);
  }
  // Same shape as run_experiment: hosts/8 leaves of 8 hosts, 2 spines,
  // uplinks carrying 8 * port_capacity / (2 * oversubscription) each.
  const int hosts_per_leaf = 8;
  const int leaves = std::max(1, config.hosts / hosts_per_leaf);
  const int spines = 2;
  return topology::make_leaf_spine(
      {.leaves = leaves,
       .spines = spines,
       .hosts_per_leaf = hosts_per_leaf,
       .host_link = config.port_capacity,
       .uplink = hosts_per_leaf * config.port_capacity /
                 (spines * config.oversubscription)});
}

}  // namespace

template <typename F>
void ServiceLoop::profiled(std::string_view phase, F&& fn) {
  if (!config_.telemetry.profile) return fn();
  const ScopedTimer t;
  fn();
  record_phase_ms(phase, t.elapsed_ms());
}

ServiceLoop::ServiceLoop(const ServiceConfig& config)
    : ServiceLoop(config, std::nullopt) {}

ServiceLoop::ServiceLoop(const ServiceConfig& config,
                         std::optional<faultsim::FaultPlan> owned_plan)
    : config_(config),
      owned_plan_(std::move(owned_plan)),
      fabric_(make_fabric(config_)),
      sim_(&fabric_.topo) {
  if (config_.control_period <= 0.0) {
    throw std::invalid_argument("ServiceLoop: control_period must be > 0");
  }
  if (config_.telemetry.metrics_every < 0.0) {
    throw std::invalid_argument("ServiceLoop: metrics_every must be >= 0");
  }
  if (owned_plan_.has_value()) config_.fault_plan = &*owned_plan_;
  build_stack();

  // Telemetry state is config-driven (no output attachments yet), so a
  // restored loop replaying its journal rebuilds it identically.
  if (config_.telemetry.slo.enabled()) {
    slo_ = std::make_unique<SloTracker>(config_.telemetry.slo);
  }
  if (config_.telemetry.flightrec_capacity > 0) {
    flightrec_ = std::make_unique<obs::FlightRecorder>(
        config_.telemetry.flightrec_capacity);
  }
  if (config_.telemetry.series_budget > 0) {
    telemetry_.set_series_budget(config_.telemetry.series_budget);
  }
}

ServiceLoop::~ServiceLoop() = default;

void ServiceLoop::build_stack() {
  // Scheduler stack, mirroring run_experiment: the coordinator owns its
  // registry; every other scheduler shares the standalone one (attached for
  // tardiness measurement either way).
  registry_ = &standalone_registry_;
  switch (config_.scheduler) {
    case cluster::SchedulerKind::kFairSharing:
      policy_ = std::make_unique<netsim::FairSharingScheduler>();
      standalone_registry_.attach(sim_);
      break;
    case cluster::SchedulerKind::kSrpt:
      policy_ = std::make_unique<ef::SrptScheduler>();
      standalone_registry_.attach(sim_);
      break;
    case cluster::SchedulerKind::kCoflowMadd:
      policy_ = std::make_unique<ef::CoflowMaddScheduler>(
          ef::CoflowMaddConfig{.work_conserving =
                                   config_.coflow_work_conserving});
      standalone_registry_.attach(sim_);
      break;
    case cluster::SchedulerKind::kSincronia:
      policy_ = std::make_unique<ef::SincroniaScheduler>();
      standalone_registry_.attach(sim_);
      break;
    case cluster::SchedulerKind::kEchelonMadd:
      policy_ = std::make_unique<ef::EchelonMaddScheduler>(
          &standalone_registry_, ef::EchelonMaddConfig{});
      standalone_registry_.attach(sim_);
      break;
    case cluster::SchedulerKind::kCoordinator:
      coordinator_ = std::make_unique<runtime::Coordinator>(
          &sim_, runtime::CoordinatorConfig{});
      registry_ = &coordinator_->registry();
      break;
  }

  scheduler_ = coordinator_
                   ? static_cast<netsim::NetworkScheduler*>(coordinator_.get())
                   : policy_.get();
  if (config_.priority_queues > 0) {
    pq_ = std::make_unique<runtime::PriorityQueueEnforcer>(
        scheduler_, runtime::PriorityQueueConfig{
                        .num_queues = config_.priority_queues});
    scheduler_ = pq_.get();
  }
  sim_.set_scheduler(scheduler_);

  if (config_.threads != 1) {
    sim_.set_parallelism(&ThreadPool::shared(), config_.threads);
  }

  attach_observability(config_.trace_sink, config_.trace_detail,
                       config_.metrics);

  // Fault injection armed before any launch, preserving run_experiment's
  // fault-first same-instant tie-break.
  if (config_.fault_plan != nullptr) {
    injector_ = std::make_unique<faultsim::FaultInjector>(
        &sim_, &fabric_.topo, config_.fault_plan);
    if (config_.trace_sink != nullptr &&
        config_.trace_detail >= obs::TraceDetail::kCoarse) {
      injector_->set_trace(config_.trace_sink);
    }
    injector_->arm();
  }
}

void ServiceLoop::attach_observability(obs::TraceSink* sink,
                                       obs::TraceDetail detail,
                                       obs::MetricsRegistry* metrics) {
  config_.trace_sink = sink;
  config_.trace_detail = detail;
  config_.metrics = metrics;
  if (sink != nullptr && detail != obs::TraceDetail::kOff) {
    sim_.set_trace(sink, detail);
    if (coordinator_ && detail >= obs::TraceDetail::kCoarse) {
      coordinator_->set_trace(sink);
    }
    if (injector_ && detail >= obs::TraceDetail::kCoarse) {
      injector_->set_trace(sink);
    }
  }
  if (metrics != nullptr) sim_.set_metrics(metrics);
}

void ServiceLoop::set_generator(std::unique_ptr<ArrivalGenerator> gen) {
  gen_ = std::move(gen);
}

void ServiceLoop::refill_pending() {
  if (pending_.has_value() || gen_ == nullptr) return;
  pending_ = gen_->next();
  if (pending_.has_value() && pending_->at < last_arrival_at_) {
    throw std::logic_error(
        "ServiceLoop: arrival stream is not time-monotone (arrival at " +
        std::to_string(pending_->at) + " after " +
        std::to_string(last_arrival_at_) + ")");
  }
}

bool ServiceLoop::step() {
  bool advanced = false;
  try {
    advanced = step_impl();
  } catch (const std::exception& e) {
    // Crash path: preserve the flight ring as a post-mortem before the
    // exception unwinds through the driver.
    note_error(e.what());
    throw;
  }
  if (advanced) telemetry_boundary();
  return advanced;
}

bool ServiceLoop::step_impl() {
  refill_pending();
  const bool work_left = !running_jobs_.empty() || !wait_queue_.empty();
  if (!pending_.has_value() && !work_left) return false;

  const ScopedTimer wall;
  // Control ticks sit at fixed multiples of the period (multiplication, not
  // accumulation: k * p is one rounding, so the tick grid is identical in
  // every run regardless of where snapshots cut the sequence).
  const SimTime tick_at =
      config_.control_period * static_cast<double>(tick_index_ + 1);
  const bool is_tick =
      !(pending_.has_value() && (!work_left || !(tick_at < pending_->at)));
  if (!is_tick) {
    const SimTime at = pending_->at;
    sim_.run(at);
    handle_arrivals_at(at);
    if (!work_left) {
      // The jump skipped an idle gap; realign the tick grid so the next
      // tick is the first multiple of the period not yet reached.
      const auto caught_up = static_cast<std::uint64_t>(
          std::floor(sim_.now() / config_.control_period));
      tick_index_ = std::max(tick_index_, caught_up);
    }
  } else {
    sim_.run(tick_at);
    ++tick_index_;
    ++control_ticks_;
    sim_.invalidate_allocation();
  }
  retire_finished();
  ++steps_;
  const double ms = wall.elapsed_ms();
  wall_ms_ += ms;
  if (config_.telemetry.profile) {
    record_phase_ms(is_tick ? "tick" : "arrival", ms);
  }
  return true;
}

void ServiceLoop::telemetry_boundary() {
  const TelemetryConfig& tc = config_.telemetry;
  if (!tc.enabled()) return;
  const SimTime now = sim_.now();
  if (flightrec_ != nullptr && injector_ != nullptr) {
    const faultsim::FaultSummary& s = injector_->summary();
    if (s.events_fired > faults_seen_) {
      faults_seen_ = s.events_fired;
      flightrec_->record(obs::FlightKind::kFault, now, faults_seen_);
    }
    if (s.abandoned > abandons_seen_) {
      abandons_seen_ = s.abandoned;
      // Abandons are terminal data loss -- dump a post-mortem while the
      // run continues.
      note_error("flow abandoned (retry budget exhausted); total " +
                 std::to_string(abandons_seen_));
    }
  }
  if (tc.metrics_every > 0.0) {
    const auto target =
        static_cast<std::uint64_t>(std::floor(now / tc.metrics_every));
    if (target > flush_index_) {
      flush_index_ = target;
      profiled("flush", [&] { flush_telemetry(now); });
    }
  }
}

void ServiceLoop::flush_telemetry(SimTime now) {
  ++flushes_;
  obs::MetricsRegistry& m = telemetry_;
  // SLO gauges and deadline-at-risk latching ride the flush heartbeat:
  // publishing them at every step boundary cost ~1-2% of the whole run and
  // the values are only observable at flush time anyway. The window itself
  // is a pure function of (completions, expiry time), so expiring here
  // keeps the tracker state identical to an every-step cadence.
  if (slo_ != nullptr) {
    slo_->on_boundary(now, &telemetry_);
    mark_deadline_risk(now);
  }
  m.counter("service.arrivals").set(journal_.size());
  m.counter("service.admitted").set(admitted_);
  m.counter("service.queued").set(queued_total_);
  m.counter("service.rejected").set(rejected_);
  m.counter("service.launched").set(jobs_.size());
  m.counter("service.completed").set(completed_);
  m.counter("service.steps").set(steps_);
  m.counter("service.control_ticks").set(control_ticks_);
  m.counter("service.flushes").set(flushes_);
  m.gauge("service.admission_rate")
      .set(journal_.empty() ? 1.0
                            : static_cast<double>(admitted_) /
                                  static_cast<double>(journal_.size()));
  m.gauge("service.total_tardiness_s").set(registry_->total_tardiness());
  m.series("service.queue_depth")
      .sample(now, static_cast<double>(wait_queue_.size()));
  m.series("service.running").sample(now, static_cast<double>(running()));
  m.series("service.active_flows")
      .sample(now, static_cast<double>(sim_.active_flow_count()));
  sim_.link_utilization(link_util_scratch_);
  if (link_series_.size() != link_util_scratch_.size()) {
    link_series_.clear();
    link_series_.reserve(link_util_scratch_.size());
    for (std::size_t i = 0; i < link_util_scratch_.size(); ++i) {
      link_series_.push_back(
          &m.series("service.link." + std::to_string(i) + ".util"));
    }
  }
  for (std::size_t i = 0; i < link_util_scratch_.size(); ++i) {
    link_series_[i]->sample(now, link_util_scratch_[i]);
  }
  if (flightrec_ != nullptr) {
    flightrec_->record(obs::FlightKind::kFlush, now, flush_index_, steps_);
  }
  if (outputs_.prom != nullptr) outputs_.prom->write(telemetry_.snapshot());
  if (outputs_.chunk != nullptr) outputs_.chunk->flush();
}

void ServiceLoop::mark_deadline_risk(SimTime now) {
  for (const SloObjective& obj : config_.telemetry.slo.objectives) {
    if (obj.kind != SloKind::kJct) continue;
    for (const std::size_t j : running_jobs_) {
      ServiceJobRecord& r = jobs_[j]->record;
      if (r.deadline_at_risk) continue;
      if (now - r.submitted > obj.threshold) {
        r.deadline_at_risk = true;
        ++at_risk_;
      }
    }
  }
  telemetry_.gauge("service.slo.deadline_at_risk")
      .set(static_cast<double>(at_risk_));
}

void ServiceLoop::handle_arrivals_at(SimTime at) {
  // Consume every arrival landing at exactly this instant, in stream order.
  // Bitwise time equality is deliberate: the burst generator reuses the
  // previous arrival's double, and distinct-but-epsilon-close instants must
  // remain distinct boundaries (they are distinct event times).
  while (pending_.has_value() && pending_->at == at) {
    Arrival arrival = std::move(*pending_);
    pending_.reset();
    if (arrival.at < sim_.now()) {
      throw std::logic_error("ServiceLoop: arrival at " +
                             std::to_string(arrival.at) +
                             " is in the simulator's past (now " +
                             std::to_string(sim_.now()) + ")");
    }
    last_arrival_at_ = arrival.at;
    admit(std::move(arrival));
    refill_pending();
  }
}

void ServiceLoop::admit(Arrival arrival) {
  AdmissionOutcome outcome{};
  profiled("admission", [&] {
    outcome = decide(config_.admission, running(), wait_queue_.size(),
                     [this] { return registry_->total_tardiness(); });
  });
  if (replay_expected_ != nullptr) {
    const std::size_t i = journal_.size();
    if (i >= replay_expected_->size() ||
        (*replay_expected_)[i].outcome != outcome) {
      throw std::runtime_error(
          "snapshot replay diverged: arrival " + std::to_string(i) +
          " decided '" + to_string(outcome) + "' but the journal recorded '" +
          (i < replay_expected_->size()
               ? to_string((*replay_expected_)[i].outcome)
               : "<past end>") +
          "' (configuration or code mismatch)");
    }
  }
  journal_.push_back(JournalEntry{outcome, arrival});
  if (flightrec_ != nullptr) {
    const std::uint64_t journal_index = journal_.size() - 1;
    switch (outcome) {
      case AdmissionOutcome::kAdmitted:
        flightrec_->record(obs::FlightKind::kAdmit, arrival.at, journal_index,
                           running());
        break;
      case AdmissionOutcome::kQueued:
        flightrec_->record(obs::FlightKind::kQueue, arrival.at, journal_index,
                           wait_queue_.size() + 1);
        break;
      case AdmissionOutcome::kRejected:
        flightrec_->record(obs::FlightKind::kReject, arrival.at,
                           journal_index);
        break;
    }
  }
  switch (outcome) {
    case AdmissionOutcome::kAdmitted:
      ++admitted_;
      launch_job(arrival.job, arrival.at, arrival.at);
      break;
    case AdmissionOutcome::kQueued:
      ++queued_total_;
      wait_queue_.push_back(std::move(arrival));
      break;
    case AdmissionOutcome::kRejected:
      ++rejected_;
      break;
  }
}

void ServiceLoop::launch_job(const cluster::JobSpec& spec, SimTime submitted,
                             SimTime start) {
  const std::size_t index = jobs_.size();
  const std::size_t H = fabric_.hosts.size();
  if (static_cast<std::size_t>(spec.ranks) > H) {
    throw std::invalid_argument("ServiceLoop: job needs " +
                                std::to_string(spec.ranks) + " ranks but the "
                                "fabric has " + std::to_string(H) + " hosts");
  }

  const ScopedTimer launch_timer;
  auto lj = std::make_unique<LiveJob>();
  lj->spec = spec;
  lj->submitted = submitted;
  lj->record.paradigm = spec.paradigm;
  lj->record.submitted = submitted;
  lj->record.started = start;

  // run_experiment's rank packing, applied in launch order: consecutive
  // ports from a wrapping cursor, DP-PS gets one extra port for its
  // parameter server.
  std::vector<NodeId> job_hosts;
  job_hosts.reserve(static_cast<std::size_t>(spec.ranks));
  for (int r = 0; r < spec.ranks; ++r) {
    job_hosts.push_back(fabric_.hosts[(next_host_ + r) % H]);
  }
  const workload::Placement placement = workload::make_placement(
      sim_, job_hosts, "j" + std::to_string(index) + ".");

  NodeId ps_host;
  WorkerId ps_worker;
  std::size_t consumed = static_cast<std::size_t>(spec.ranks);
  if (spec.paradigm == workload::Paradigm::kDpPs) {
    ps_host = fabric_.hosts[(next_host_ + consumed) % H];
    ps_worker =
        sim_.add_worker(ps_host, "j" + std::to_string(index) + ".ps");
    ++consumed;
  }
  next_host_ = (next_host_ + consumed) % H;

  lj->group_begin = registry_->size();
  lj->generated = cluster::generate_job_workflow(
      spec, placement, ps_host, ps_worker, *registry_, JobId{index});
  lj->group_end = registry_->size();
  lj->engine = std::make_unique<netsim::WorkflowEngine>(
      &sim_, &lj->generated.workflow);
  lj->engine->on_complete = [this, index](netsim::Simulator&) {
    job_finished(index);
  };

  // Same-instant ordering contract (ISSUE 9 satellite): a launch scheduled
  // after another must land strictly later in the event queue's sequence
  // space -- pop_due's tie-break then replays same-instant releases in
  // submission order. A violation means something scheduled out of band.
  const std::uint64_t seq_before = sim_.events().scheduled_seq();
  assert(seq_before >= last_launch_seq_ &&
         "launch sequence floor moved backwards");
  if (seq_before < last_launch_seq_) {
    throw std::logic_error(
        "ServiceLoop: launch would schedule below the previous launch's "
        "sequence floor, breaking the same-instant submission-order "
        "tie-break");
  }
  lj->engine->launch(start);
  last_launch_seq_ = std::max(last_launch_seq_, sim_.events().scheduled_seq());

  jobs_.push_back(std::move(lj));
  running_jobs_.push_back(index);
  if (flightrec_ != nullptr) {
    flightrec_->record(obs::FlightKind::kLaunch, start, index, running());
  }
  if (config_.telemetry.profile) {
    record_phase_ms("launch", launch_timer.elapsed_ms());
  }
}

void ServiceLoop::job_finished(std::size_t index) {
  LiveJob& lj = *jobs_[index];
  lj.record.finish = sim_.now();
  lj.record.finished = true;
  // The engine is still on the stack (on_complete fires inside its
  // node_done), so its workflow is freed by retire_finished once sim_.run()
  // returns, not here.
  [[maybe_unused]] const std::size_t erased = std::erase(running_jobs_, index);
  assert(erased == 1);
  finished_jobs_.push_back(index);
  ++completed_;
  if (config_.telemetry.enabled()) {
    const SimTime now = sim_.now();
    const double jct = lj.record.finish - lj.record.submitted;
    const double queue_wait = lj.record.started - lj.record.submitted;
    // Max tardiness over the job's complete groups (incomplete ones report
    // -inf and are skipped; a fully-incomplete job samples 0).
    double tardiness = 0.0;
    bool any_group = false;
    for (std::size_t g = lj.group_begin; g < lj.group_end; ++g) {
      const ef::EchelonFlow& grp = registry_->get(EchelonFlowId{g});
      if (!grp.complete()) continue;
      tardiness =
          any_group ? std::max(tardiness, grp.tardiness()) : grp.tardiness();
      any_group = true;
    }
    telemetry_.histogram("service.jct_s").observe(jct);
    telemetry_.histogram("service.queue_wait_s").observe(queue_wait);
    telemetry_.histogram("service.job_tardiness_s").observe(tardiness);
    if (slo_ != nullptr) {
      const double values[kSloKindCount] = {jct, queue_wait, tardiness};
      slo_->on_completion(now, values);
    }
    if (flightrec_ != nullptr) {
      flightrec_->record(obs::FlightKind::kComplete, now, index, completed_);
    }
  }
  // Backfill freed slots from the wait queue, oldest first, launching at
  // the completion instant. This runs inside sim_.run() (the engine's
  // on_complete fires from the event loop), so the released root nodes join
  // the very next batch at this instant -- deterministically ordered by
  // their schedule sequence.
  while (!wait_queue_.empty() &&
         (config_.admission.max_running == 0 ||
          running() < config_.admission.max_running)) {
    Arrival next = std::move(wait_queue_.front());
    wait_queue_.pop_front();
    launch_job(next.job, next.at, sim_.now());
  }
}

SimTime ServiceLoop::drain() {
  while (step()) {
  }
  // Leftover events past the last completion: fault-plan timers, parked
  // retries, etc. Runs to quiescence.
  const ScopedTimer wall;
  const SimTime end = sim_.run();
  retire_finished();
  wall_ms_ += wall.elapsed_ms();
  return end;
}

void ServiceLoop::retire_finished() {
  for (const std::size_t j : finished_jobs_) {
    LiveJob& lj = *jobs_[j];
    lj.engine.reset();
    lj.generated = {};
    // Every member of a finished job's groups has finished (an abandoned
    // flow finishes too), so each group's tardiness is final.
    for (std::size_t g = lj.group_begin; g < lj.group_end; ++g) {
      registry_->get(EchelonFlowId{g}).retire();
    }
  }
  finished_jobs_.clear();
}

std::size_t ServiceLoop::workflows_held() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(jobs_.begin(), jobs_.end(),
                    [](const auto& lj) { return lj->engine != nullptr; }));
}

ServiceResult ServiceLoop::result() const {
  ServiceResult r;
  r.scheduler_name = scheduler_->name();
  r.end = sim_.now();
  r.total_tardiness = registry_->total_tardiness();
  r.weighted_total_tardiness = registry_->weighted_total_tardiness();
  r.control_invocations = sim_.control_invocations();
  r.arrivals = journal_.size();
  r.admitted = admitted_;
  r.queued = queued_total_;
  r.rejected = rejected_;
  r.launched = jobs_.size();
  r.completed = completed_;
  r.steps = steps_;
  r.control_ticks = control_ticks_;
  r.deadline_at_risk = at_risk_;
  r.telemetry_flushes = flushes_;
  r.wall_ms = wall_ms_;
  r.flow_finish.reserve(sim_.flow_count());
  for (std::size_t i = 0; i < sim_.flow_count(); ++i) {
    r.flow_finish.push_back(sim_.finish_time(FlowId{i}));
  }
  r.jobs.reserve(jobs_.size());
  for (const auto& lj : jobs_) r.jobs.push_back(lj->record);
  return r;
}

void ServiceLoop::publish_metrics() const {
  if (config_.metrics == nullptr) return;
  obs::MetricsRegistry& m = *config_.metrics;
  m.counter("service.arrivals").set(journal_.size());
  m.counter("service.admitted").set(admitted_);
  m.counter("service.queued").set(queued_total_);
  m.counter("service.rejected").set(rejected_);
  m.counter("service.launched").set(jobs_.size());
  m.counter("service.completed").set(completed_);
  m.counter("service.steps").set(steps_);
  m.counter("service.control_ticks").set(control_ticks_);
  m.gauge("service.queue_depth").set(static_cast<double>(wait_queue_.size()));
  m.gauge("service.running").set(static_cast<double>(running()));
  m.gauge("service.admission_rate")
      .set(journal_.empty() ? 1.0
                            : static_cast<double>(admitted_) /
                                  static_cast<double>(journal_.size()));
  // Control decisions per host-side second of service-loop work.
  m.gauge("service.decisions_per_sec")
      .set(wall_ms_ <= 0.0 ? 0.0
                           : static_cast<double>(sim_.control_invocations()) /
                                 (wall_ms_ / 1e3));
  m.gauge("echelon.total_tardiness_s").set(registry_->total_tardiness());
  // Rebuilt from scratch on every call, so republishing never
  // double-counts a group.
  obs::Histogram& tard = m.histogram("service.tardiness_s");
  tard = obs::Histogram(tard.bounds());
  for (const ef::EchelonFlow* g : registry_->all()) {
    if (g->complete()) tard.observe(g->tardiness());
  }
}

void ServiceLoop::attach_telemetry_outputs(TelemetryOutputs outputs) {
  outputs_ = std::move(outputs);
}

void ServiceLoop::flush_now() {
  if (!config_.telemetry.enabled()) return;
  flush_telemetry(sim_.now());
}

void ServiceLoop::note_snapshot() {
  if (flightrec_ == nullptr) return;
  flightrec_->record(obs::FlightKind::kSnapshot, sim_.now(), steps_);
}

void ServiceLoop::note_error(std::string_view what) {
  if (flightrec_ == nullptr) return;
  flightrec_->record(obs::FlightKind::kError, sim_.now(), 0, 0,
                     std::string(what));
  if (!outputs_.flightrec_path.empty()) {
    std::ofstream os(outputs_.flightrec_path,
                     std::ios::binary | std::ios::trunc);
    if (os) flightrec_->dump(os);
  }
}

void ServiceLoop::dump_flight(std::ostream& os) const {
  if (flightrec_ != nullptr) flightrec_->dump(os);
}

void ServiceLoop::record_phase_ms(std::string_view phase, double ms) {
  if (!config_.telemetry.profile) return;
  const std::string name = "service.profile." + std::string(phase) + "_ms";
  profile_.histogram(name).observe(ms);
  profile_.series(name).sample(sim_.now(), ms);
}

void ServiceLoop::begin_replay(const std::vector<JournalEntry>& expected) {
  replay_expected_ = &expected;
}

void ServiceLoop::end_replay(std::unique_ptr<ArrivalGenerator> gen,
                             std::optional<Arrival> pending) {
  replay_expected_ = nullptr;
  gen_ = std::move(gen);
  pending_ = std::move(pending);
}

}  // namespace echelon::service
