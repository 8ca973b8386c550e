#include "service/service.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "common/timer.hpp"

namespace echelon::service {

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
      stack_(config_.scheduler, config_.fabric, config_.hosts,
             config_.port_capacity, config_.oversubscription) {
  if (config_.telemetry.metrics_every < 0.0) {
    throw std::invalid_argument("ServiceLoop: metrics_every must be >= 0");
  }
  if (config_.telemetry.slo.enabled() &&
      !(std::isfinite(config_.telemetry.slo.window) &&
        config_.telemetry.slo.window > 0.0)) {
    throw std::invalid_argument(
        "ServiceLoop: SLO window must be finite and > 0");
  }
  if (owned_plan_.has_value()) config_.fault_plan = &*owned_plan_;
  if (config_.record_flow_finish) {
    sim().add_flow_listener([this](netsim::Simulator&, const netsim::Flow& f) {
      flow_finish_.record(f.id.value(), f.finish_time);
    });
  }
  // Released groups are complete: their tardiness is final.
  registry().add_release_listener([this](const ef::EchelonFlow& g) {
    released_tardiness_.observe(g.tardiness());
  });
  stack_.observe(config_.trace_sink, config_.trace_detail, config_.metrics);
  // Armed before any launch: fault-first same-instant tie-break.
  stack_.arm_faults(config_.fault_plan);

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

void ServiceLoop::attach_observability(obs::TraceSink* sink,
                                       obs::TraceDetail detail,
                                       obs::MetricsRegistry* metrics) {
  config_.trace_sink = sink;
  config_.trace_detail = detail;
  config_.metrics = metrics;
  stack_.observe(sink, detail, metrics);
}

void ServiceLoop::set_generator(std::unique_ptr<ArrivalGenerator> gen) {
  if (steps_ > 0) {
    throw std::logic_error(
        "ServiceLoop: set_generator after the loop has stepped");
  }
  gen_ = std::move(gen);
}

const std::vector<cluster::Seat>& ServiceLoop::seat_ahead(
    std::span<const cluster::JobSpec> jobs) {
  if (steps_ > 0) {
    throw std::logic_error("ServiceLoop: seat_ahead after the loop has stepped");
  }
  seats_ahead_.reserve(seats_ahead_.size() + jobs.size());
  for (const cluster::JobSpec& job : jobs) {
    seats_ahead_.push_back(stack_.place(job));
  }
  return seats_ahead_;
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
  // Ticks sit at fixed multiples of the period (multiplication, not
  // accumulation: k * p is one rounding, so the tick grid is identical in
  // every run regardless of where snapshots cut the sequence).
  const SimTime tick_at = kTickPeriod * static_cast<double>(tick_index_ + 1);
  const bool is_tick =
      !(pending_.has_value() && (!work_left || !(tick_at < pending_->at)));
  if (!is_tick) {
    const SimTime at = pending_->at;
    sim().run(at);
    handle_arrivals_at(at);
    if (!work_left) {
      // The jump skipped an idle gap; realign the tick grid so the next
      // tick is the first multiple of the period not yet reached.
      const auto caught_up = static_cast<std::uint64_t>(
          std::floor(sim().now() / kTickPeriod));
      tick_index_ = std::max(tick_index_, caught_up);
    }
  } else {
    sim().run(tick_at);
    ++tick_index_;
    ++control_ticks_;
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
  const SimTime now = sim().now();
  if (flightrec_ != nullptr && injector() != nullptr) {
    const faultsim::FaultSummary& s = injector()->summary();
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

void ServiceLoop::publish_counts(obs::MetricsRegistry& m) const {
  m.counter("service.arrivals").set(journal_.size());
  m.counter("service.admitted").set(admitted_);
  m.counter("service.queued").set(queued_total_);
  m.counter("service.rejected").set(rejected_);
  m.counter("service.launched").set(jobs_.size());
  m.counter("service.completed").set(completed_);
  m.counter("service.steps").set(steps_);
  m.counter("service.control_ticks").set(control_ticks_);
  m.gauge("service.admission_rate")
      .set(journal_.empty() ? 1.0
                            : static_cast<double>(admitted_) /
                                  static_cast<double>(journal_.size()));
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
  publish_counts(m);
  m.counter("service.flushes").set(flushes_);
  m.gauge("service.total_tardiness_s").set(registry().total_tardiness());
  m.series("service.queue_depth")
      .sample(now, static_cast<double>(wait_queue_.size()));
  m.series("service.running").sample(now, static_cast<double>(running()));
  m.series("service.active_flows")
      .sample(now, static_cast<double>(sim().active_flow_count()));
  sim().link_utilization(link_util_scratch_);
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
  if (outputs_.prom != nullptr) outputs_.prom->write(telemetry_.latest());
  if (outputs_.chunk != nullptr) outputs_.chunk->flush();
}

void ServiceLoop::mark_deadline_risk(SimTime now) {
  for (const SloObjective& obj : config_.telemetry.slo.objectives) {
    if (obj.kind != SloKind::kJct) continue;
    for (const RunningJob& job : running_jobs_) {
      ServiceJobRecord& r = jobs_[job.index];
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
    if (arrival.at < sim().now()) {
      throw std::logic_error("ServiceLoop: arrival at " +
                             std::to_string(arrival.at) +
                             " is in the simulator's past (now " +
                             std::to_string(sim().now()) + ")");
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
                     [this] { return registry().total_tardiness(); });
  });
  if (replay_expected_ != nullptr) {
    const std::size_t i = journal_.size();
    if (i >= replay_expected_->size() ||
        (*replay_expected_)[i] != outcome) {
      throw std::runtime_error(
          "snapshot replay diverged: arrival " + std::to_string(i) +
          " decided '" + to_string(outcome) + "' but the journal recorded '" +
          (i < replay_expected_->size()
               ? to_string((*replay_expected_)[i])
               : "<past end>") +
          "' (configuration or code mismatch)");
    }
  }
  journal_.push_back(outcome);
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
  const ScopedTimer launch_timer;
  auto built = std::make_unique<cluster::BuiltJob>();
  const cluster::Seat seat = index < seats_ahead_.size()
                                 ? seats_ahead_[index]
                                 : stack_.place(spec);
  stack_.build(*built, spec, seat, JobId{index},
               [this, index](netsim::Simulator&) { job_finished(index); });

  // Same-instant launches replay in launch order: the event queue breaks
  // time ties by its ever-increasing submission sequence.
  built->engine->launch(start);

  jobs_.push_back(ServiceJobRecord{
      .paradigm = spec.paradigm, .submitted = submitted, .started = start});
  running_jobs_.push_back(RunningJob{.index = index, .built = std::move(built)});
  if (flightrec_ != nullptr) {
    flightrec_->record(obs::FlightKind::kLaunch, start, index, running());
  }
  const double ms = launch_timer.elapsed_ms();
  build_ms_ += ms;
  if (config_.telemetry.profile) record_phase_ms("launch", ms);
}

void ServiceLoop::job_finished(std::size_t index) {
  ServiceJobRecord& record = jobs_[index];
  record.finish = sim().now();
  record.finished = true;
  last_finish_ = record.finish;  // the clock never goes back
  // The engine is still on the stack (on_complete fires inside its
  // node_done), so its workflow is freed by retire_finished once sim().run()
  // returns, not here.
  const auto it = std::find_if(
      running_jobs_.begin(), running_jobs_.end(),
      [index](const RunningJob& r) { return r.index == index; });
  assert(it != running_jobs_.end());
  const cluster::BuiltJob& built = *finished_jobs_.emplace_back(
      std::move(it->built));
  running_jobs_.erase(it);
  ++completed_;
  if (finish_hook_) finish_hook_(index, built);
  if (config_.telemetry.enabled()) {
    const SimTime now = sim().now();
    const double jct = record.finish - record.submitted;
    const double queue_wait = record.started - record.submitted;
    // Max tardiness over the job's complete groups (incomplete ones report
    // -inf and are skipped; a fully-incomplete job samples 0).
    double tardiness = 0.0;
    bool any_group = false;
    for (std::size_t g = built.group_begin; g < built.group_end; ++g) {
      const ef::EchelonFlow& grp = registry().get(EchelonFlowId{g});
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
  // the completion instant. This runs inside sim().run() (the engine's
  // on_complete fires from the event loop), so the released root nodes join
  // the very next batch at this instant -- deterministically ordered by
  // their schedule sequence.
  while (!wait_queue_.empty() &&
         (config_.admission.max_running == 0 ||
          running() < config_.admission.max_running)) {
    Arrival next = std::move(wait_queue_.front());
    wait_queue_.pop_front();
    launch_job(next.job, next.at, sim().now());
  }
}

SimTime ServiceLoop::drain() {
  while (step()) {
  }
  // Leftover events past the last completion: fault-plan timers, parked
  // retries, etc. Runs to quiescence.
  const ScopedTimer wall;
  const SimTime end = sim().run();
  retire_finished();
  wall_ms_ += wall.elapsed_ms();
  return end;
}

void ServiceLoop::retire_finished() {
  if (finished_jobs_.empty()) return;
  const ScopedTimer t;
  for (const auto& built : finished_jobs_) stack_.retire(*built);
  finished_jobs_.clear();
  build_ms_ += t.elapsed_ms();
}

ServiceResult ServiceLoop::result() const {
  ServiceResult r;
  r.scheduler_name = scheduler().name();
  r.end = last_finish_;
  r.total_tardiness = registry().total_tardiness();
  r.weighted_total_tardiness = registry().weighted_total_tardiness();
  r.control_invocations = sim().control_invocations();
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
  if (config_.record_flow_finish) {
    r.flow_finish = flow_finish_.view(sim().flow_count());
  }
  r.jobs = jobs_;
  return r;
}

void ServiceLoop::publish_metrics() const {
  if (config_.metrics == nullptr) return;
  obs::MetricsRegistry& m = *config_.metrics;
  const netsim::Simulator& s = sim();
  m.gauge("sim.makespan_s").set(last_finish_);
  m.counter("sim.control_invocations").set(s.control_invocations());
  m.counter("sim.flows").set(s.flow_count());
  m.gauge("run.wall_ms").set(wall_ms_ - build_ms_);  // the one host time

  const netsim::RateAllocator::Stats& as = s.alloc_stats();
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

  const netsim::SchedStats& ss = scheduler().sched_stats();
  m.counter("sched.passes").set(ss.passes);
  m.counter("sched.full_passes").set(ss.full_passes);
  m.counter("sched.scoped_passes").set(ss.scoped_passes);
  m.counter("sched.pass_skips").set(ss.pass_skips);

  const topology::RouteTable::Stats& rs = s.routes().stats();
  m.counter("routes.lookups").set(rs.lookups);
  m.counter("routes.cache_hits").set(rs.hits);
  m.counter("routes.computations").set(rs.computations);
  m.counter("routes.distinct").set(s.routes().size());

  if (injector() != nullptr) {
    const faultsim::FaultSummary& fs = injector()->summary();
    m.counter("fault.events_fired").set(fs.events_fired);
    m.counter("fault.reroutes").set(fs.reroutes);
    m.counter("fault.parks").set(fs.parks);
    m.counter("fault.retries").set(fs.retries);
    m.counter("fault.resumes").set(fs.resumes);
    m.counter("fault.abandoned").set(fs.abandoned);
    m.gauge("fault.downtime_s").set(fs.downtime);
  }

  m.gauge("echelon.total_tardiness_s").set(registry().total_tardiness());
  m.gauge("echelon.weighted_total_tardiness_s")
      .set(registry().weighted_total_tardiness());
  publish_counts(m);
  m.gauge("service.queue_depth").set(static_cast<double>(wait_queue_.size()));
  m.gauge("service.running").set(static_cast<double>(running()));
  // The per-EchelonFlow tardiness distribution the paper's objective (Eqs.
  // 1-2) is written in terms of. Rebuilt on every call, so republishing
  // never double-counts a group: the released groups, then the held
  // complete ones, both in creation order -- the same observations as a
  // scan over every group.
  obs::Histogram& tard = m.histogram("echelonflow.tardiness_s");
  tard = released_tardiness_;
  for (const ef::EchelonFlow* g : registry().all()) {
    if (g->complete()) tard.observe(g->tardiness());
  }
}

void ServiceLoop::attach_telemetry_outputs(TelemetryOutputs outputs) {
  outputs_ = std::move(outputs);
}

void ServiceLoop::flush_now() {
  if (!config_.telemetry.enabled()) return;
  flush_telemetry(sim().now());
}

void ServiceLoop::note_snapshot() {
  if (flightrec_ == nullptr) return;
  flightrec_->record(obs::FlightKind::kSnapshot, sim().now(), steps_);
}

void ServiceLoop::note_error(std::string_view what) {
  if (flightrec_ == nullptr) return;
  flightrec_->record(obs::FlightKind::kError, sim().now(), 0, 0,
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
  profile_.series(name).sample(sim().now(), ms);
}

void ServiceLoop::begin_replay(
    const std::vector<AdmissionOutcome>& expected) {
  replay_expected_ = &expected;
}

void ServiceLoop::end_replay() { replay_expected_ = nullptr; }

}  // namespace echelon::service
