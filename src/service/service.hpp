// Long-running scheduler daemon over the batch simulator (DESIGN.md §13).
//
// ServiceLoop drives one cluster::Stack: job arrivals are pulled from an
// ArrivalGenerator, pushed through pluggable admission control
// (admission.hpp), and placed and built by the Stack in launch order.
// run_experiment (cluster/experiment.hpp) is a ServiceLoop over its trace.
// The loop is *pull-driven*: every run of the simulator stops at a
// deterministic boundary -- the next arrival instant or the next tick
// t_k = k * kTickPeriod -- so two ServiceLoops fed the same configuration
// and arrival stream execute the identical event history and produce
// bit-identical results and trace streams. A boundary stops the Simulator's
// clock and nothing else (no forced scheduler pass, no byte stamp), so where
// boundaries fall changes no result: a served trace matches its batch run
// bit for bit. The snapshot/restore layer (snapshot.hpp) is built on this:
// a restored loop rebuilds its arrival generator at stream start, replays
// the same number of steps through this same step loop and must land on a
// bitwise-equal simulator state.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/job.hpp"
#include "cluster/stack.hpp"
#include "common/units.hpp"
#include "faultsim/fault_plan.hpp"
#include "faultsim/injector.hpp"
#include "netsim/simulator.hpp"
#include "obs/expose.hpp"
#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"
#include "service/admission.hpp"
#include "service/arrivals.hpp"
#include "service/flow_finish.hpp"
#include "service/slo.hpp"

namespace echelon::service {

// Deterministic service-plane telemetry (DESIGN.md §15). Everything here
// except `profile` is a pure function of simulated time, so it is part of
// the snapshot wire format and a restored loop rebuilds identical
// telemetry state by replaying the run. Output *attachments* (file targets)
// are per-process and live in TelemetryOutputs instead.
struct TelemetryConfig {
  // Interval between telemetry flushes in simulated seconds (0 = never).
  // A flush sets the service.* counters and gauges of the internal
  // telemetry registry to their current values and, when outputs are
  // attached, writes the Prometheus exposition and appends one trace chunk.
  // The registry keeps no series: its size is O(links + objectives),
  // however long the run.
  Duration metrics_every = 0.0;
  // Flight-recorder ring capacity (0 = recorder off).
  std::size_t flightrec_capacity = 0;
  SloConfig slo;  // no objectives = SLO tracking off
  // Control-plane self-profiling (wall clock). Profile data lives in a
  // separate registry, is never serialized and never appears in the
  // Prometheus exposition, so enabling it cannot perturb determinism.
  bool profile = false;

  [[nodiscard]] bool enabled() const noexcept {
    return metrics_every > 0.0 || flightrec_capacity > 0 || slo.enabled() ||
           profile;
  }
};

// Per-process telemetry output attachments (never serialized; reattach
// after snapshot restore via RestoreOptions).
struct TelemetryOutputs {
  obs::PromWriter* prom = nullptr;         // exposition file target
  obs::TraceChunkWriter* chunk = nullptr;  // chunked trace, flushed per flush
  std::string flightrec_path;  // post-mortem dump target ("" = none)
};

struct ServiceConfig {
  cluster::SchedulerKind scheduler = cluster::SchedulerKind::kEchelonMadd;
  cluster::FabricKind fabric = cluster::FabricKind::kBigSwitch;
  int hosts = 16;
  BytesPerSec port_capacity = gbps(25);
  double oversubscription = 1.0;  // leaf-spine only
  // Read by nothing and not serialized: runs are single-threaded. It stays
  // only because the frozen end-to-end benchmark driver (bench/e2e) assigns
  // it; the next refresh of that driver deletes it (ROADMAP, "Waiting on the
  // bench/e2e refresh").
  unsigned threads = 1;

  AdmissionConfig admission;

  // Optional deterministic fault script; must outlive the loop (snapshot
  // restore hands ownership of the reparsed plan to the loop instead).
  const faultsim::FaultPlan* fault_plan = nullptr;

  // Observability (read-only emitters; never affect results).
  obs::TraceSink* trace_sink = nullptr;
  obs::TraceDetail trace_detail = obs::TraceDetail::kOff;
  obs::MetricsRegistry* metrics = nullptr;

  // Service-plane telemetry (read-only over sim state; never affects
  // results -- pinned by tests/test_service_telemetry.cpp).
  TelemetryConfig telemetry;

  // Record every flow's finish time for ServiceResult::flow_finish (8 B per
  // flow, kept for the whole run). Off leaves flow_finish empty and changes
  // nothing else. A snapshot carries it, so a restored loop records exactly
  // when the saved one did. On by default only because the frozen
  // end-to-end benchmark driver (bench/e2e) digests flow_finish; the next
  // refresh of that driver deletes this field together with the recording.
  bool record_flow_finish = true;
};

// Interval between ticks, the boundaries where telemetry flushes and
// snapshots happen between arrivals. A constant: ticks change no result.
inline constexpr Duration kTickPeriod = 0.01;

struct ServiceJobRecord {
  workload::Paradigm paradigm = workload::Paradigm::kDpAllReduce;
  SimTime submitted = 0.0;  // arrival instant (admission time)
  SimTime started = 0.0;    // launch instant (== submitted unless queued)
  SimTime finish = 0.0;     // workflow completion; 0 while running
  bool finished = false;
  // Latched by the SLO tracker when the job outlives a kJct objective's
  // threshold while still running (sticky; only set with SLO telemetry on).
  bool deadline_at_risk = false;
};

struct ServiceResult {
  std::string scheduler_name;
  // Instant of the last job completion (0 when no job completed) -- the
  // makespan, not where the loop stopped (ServiceLoop::drain() returns that).
  SimTime end = 0.0;
  Duration total_tardiness = 0.0;
  Duration weighted_total_tardiness = 0.0;
  std::uint64_t control_invocations = 0;

  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t queued = 0;
  std::uint64_t rejected = 0;
  std::uint64_t launched = 0;
  std::uint64_t completed = 0;
  std::uint64_t steps = 0;
  std::uint64_t control_ticks = 0;
  // Jobs ever flagged deadline-at-risk (0 unless SLO telemetry is on).
  std::uint64_t deadline_at_risk = 0;
  // Telemetry flushes performed (0 with telemetry off).
  std::uint64_t telemetry_flushes = 0;
  double wall_ms = 0.0;

  // Bitwise-comparable behavioural signature: every flow's completion time
  // in FlowId order (kTimeInfinity while unfinished; empty when
  // ServiceConfig::record_flow_finish is off), plus the per-job lifecycle
  // records in launch order. flow_finish shares the loop's record and stays
  // frozen while the loop runs on.
  FlowFinishView flow_finish;
  std::vector<ServiceJobRecord> jobs;
};

class ServiceLoop {
 public:
  explicit ServiceLoop(const ServiceConfig& config);
  // Variant for restored snapshots: the loop owns the reparsed fault plan.
  ServiceLoop(const ServiceConfig& config,
              std::optional<faultsim::FaultPlan> owned_plan);
  ~ServiceLoop();

  ServiceLoop(const ServiceLoop&) = delete;
  ServiceLoop& operator=(const ServiceLoop&) = delete;

  // The loop's one arrival source. Throws std::logic_error once the loop
  // has stepped: a snapshot records the generator's construction arguments
  // and restore replays the stream from its start, so the source may not
  // change mid-run.
  void set_generator(std::unique_ptr<ArrivalGenerator> gen);

  // Places every job of `jobs` now, in order, so every WorkerId exists
  // before the first step; the next jobs.size() launches take these seats
  // in launch order instead of placing. Returns the seats. Throws what
  // Stack::place throws, and std::logic_error once the loop has stepped.
  const std::vector<cluster::Seat>& seat_ahead(
      std::span<const cluster::JobSpec> jobs);

  // Called when a launched job finishes, with its launch index and its
  // built workflow and engine, which are retired when the step returns.
  // Runs inside the simulator's event loop: it must only read.
  using FinishHook =
      std::function<void(std::size_t index, const cluster::BuiltJob&)>;
  void set_finish_hook(FinishHook hook) { finish_hook_ = std::move(hook); }

  // Advances to the next boundary (arrival instant or tick) and processes
  // it. Returns false -- without advancing -- once the arrival
  // stream is exhausted and no admitted or queued work remains. Throws
  // std::logic_error if the generator emits a time-non-monotone arrival or
  // one in the simulator's past (the same-instant ordering contract).
  bool step();

  // Runs the loop to completion: steps until idle, then drains any leftover
  // events (fault-plan timers past the last completion). Returns the final
  // simulation time.
  SimTime drain();

  [[nodiscard]] ServiceResult result() const;

  // The one run-level metrics publisher of `serve` and `cluster` (DESIGN.md
  // §9 lists its metrics: sim.*, run.wall_ms, alloc.*, sched.*, routes.*,
  // fault.*, echelon.*, service.*, echelonflow.tardiness_s), into the
  // registry configured at construction (no-op without one). Callable at any
  // boundary; idempotent (each call rebuilds the tardiness histogram from
  // the released groups' histogram and the held complete groups).
  void publish_metrics() const;

  // --- snapshot surface (snapshot.cpp) ---
  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }
  // The admission outcome of every consumed arrival, in stream order: the
  // arrival's index is its position here.
  [[nodiscard]] const std::vector<AdmissionOutcome>& journal()
      const noexcept {
    return journal_;
  }
  [[nodiscard]] const ArrivalGenerator* generator() const noexcept {
    return gen_.get();
  }
  [[nodiscard]] const netsim::Simulator& sim() const noexcept {
    return stack_.sim();
  }
  [[nodiscard]] netsim::Simulator& sim() noexcept { return stack_.sim(); }
  [[nodiscard]] const ef::Registry& registry() const noexcept {
    return stack_.registry();
  }
  // For adding release listeners (the certifier).
  [[nodiscard]] ef::Registry& registry() noexcept { return stack_.registry(); }
  [[nodiscard]] const netsim::NetworkScheduler& scheduler() const noexcept {
    return stack_.scheduler();
  }
  [[nodiscard]] const faultsim::FaultInjector* injector() const noexcept {
    return stack_.injector();
  }
  [[nodiscard]] std::uint64_t steps_executed() const noexcept {
    return steps_;
  }
  [[nodiscard]] std::uint64_t tick_index() const noexcept {
    return tick_index_;
  }
  [[nodiscard]] std::uint64_t running() const noexcept {
    return running_jobs_.size();
  }
  // Launched jobs still holding their workflow and engine: equal to
  // running() at every step boundary and 0 after drain(). For tests and
  // diagnostics.
  [[nodiscard]] std::size_t workflows_held() const noexcept {
    return running_jobs_.size() + finished_jobs_.size();
  }
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return wait_queue_.size();
  }
  [[nodiscard]] std::uint64_t launched() const noexcept {
    return jobs_.size();
  }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t admitted_count() const noexcept {
    return admitted_;
  }
  [[nodiscard]] std::uint64_t queued_count() const noexcept {
    return queued_total_;
  }
  [[nodiscard]] std::uint64_t rejected_count() const noexcept {
    return rejected_;
  }
  [[nodiscard]] std::uint64_t control_ticks() const noexcept {
    return control_ticks_;
  }
  // Host time spent placing and building launched jobs and retiring
  // finished ones; part of ServiceResult::wall_ms.
  [[nodiscard]] double build_ms() const noexcept { return build_ms_; }
  [[nodiscard]] std::size_t next_host_cursor() const noexcept {
    return stack_.next_host();
  }
  [[nodiscard]] SimTime last_arrival_at() const noexcept {
    return last_arrival_at_;
  }

  // --- service-plane telemetry (DESIGN.md §15) ---
  // Attach per-process output targets (prom file, chunked trace stream,
  // flight-recorder dump path). Telemetry *state* is config-driven and
  // deterministic; outputs only render it, so attaching or omitting them
  // never changes results.
  void attach_telemetry_outputs(TelemetryOutputs outputs);
  [[nodiscard]] const TelemetryOutputs& telemetry_outputs() const noexcept {
    return outputs_;
  }
  // Deterministic telemetry registry state / its Prometheus exposition.
  [[nodiscard]] obs::MetricsSnapshot telemetry_snapshot() const {
    return telemetry_.snapshot();
  }
  [[nodiscard]] std::string prom_exposition() const {
    return obs::to_prom_text(telemetry_.snapshot());
  }
  // Wall-clock self-profile (separate registry; empty unless
  // telemetry.profile is set).
  [[nodiscard]] obs::MetricsSnapshot profile_snapshot() const {
    return profile_.snapshot();
  }
  [[nodiscard]] const SloTracker* slo() const noexcept { return slo_.get(); }
  [[nodiscard]] const obs::FlightRecorder* flight() const noexcept {
    return flightrec_.get();
  }
  [[nodiscard]] std::uint64_t telemetry_flushes() const noexcept {
    return flushes_;
  }
  [[nodiscard]] std::uint64_t flush_index() const noexcept {
    return flush_index_;
  }
  [[nodiscard]] std::uint64_t faults_seen() const noexcept {
    return faults_seen_;
  }
  [[nodiscard]] std::uint64_t deadline_at_risk_count() const noexcept {
    return at_risk_;
  }
  // Forces one telemetry flush at the current sim time (e.g. after drain()
  // so the terminal exposition reflects end-of-run state). No-op when
  // telemetry is disabled; deterministic like the periodic flushes.
  void flush_now();
  // Snapshot restore support: replay rebuilds every flight event except the
  // kSnapshot markers earlier saves injected into the original ring, so
  // restore overwrites the ring verbatim (snapshot.cpp kTelemetry section).
  [[nodiscard]] obs::FlightRecorder* mutable_flight() noexcept {
    return flightrec_.get();
  }
  // Records a snapshot-boundary marker in the flight ring. Call *after*
  // saving, so the saved image (and hence a restored ring) matches an
  // uninterrupted run that never snapshotted.
  void note_snapshot();
  // Records an error event and, when a flight dump path is attached, writes
  // the post-mortem file. Called automatically when step() throws; public
  // so drivers can report out-of-loop failures (e.g. SnapshotError).
  void note_error(std::string_view what);
  void dump_flight(std::ostream& os) const;
  // Self-profiling hook for externally-timed phases (snapshot save in the
  // CLI). No-op unless telemetry.profile is on.
  void record_phase_ms(std::string_view phase, double ms);

  // Restore plumbing (snapshot.cpp only): between the two calls every
  // admission decision is cross-checked against `expected`, which must
  // outlive the replay. The replayed steps pull the arrivals from the
  // rebuilt generator, so they leave it where the original run had it.
  void begin_replay(const std::vector<AdmissionOutcome>& expected);
  void end_replay();
  void attach_observability(obs::TraceSink* sink, obs::TraceDetail detail,
                            obs::MetricsRegistry* metrics);

 private:
  // A launched job that still holds its workflow. The BuiltJob lives on the
  // heap so its engine's pointer into the workflow survives moves.
  struct RunningJob {
    std::size_t index = 0;  // into jobs_
    std::unique_ptr<cluster::BuiltJob> built;
  };
  // Runs fn(); with telemetry.profile on, also records its wall time as
  // profile phase `phase`. Unprofiled runs never read the clock.
  template <typename F>
  void profiled(std::string_view phase, F&& fn);

  void refill_pending();
  bool step_impl();
  void telemetry_boundary();
  // The service.* job and step counters and the admission-rate gauge, which
  // publish_metrics() and the telemetry flush both write.
  void publish_counts(obs::MetricsRegistry& m) const;
  void flush_telemetry(SimTime now);
  void mark_deadline_risk(SimTime now);
  void handle_arrivals_at(SimTime at);
  void admit(Arrival arrival);
  void launch_job(const cluster::JobSpec& spec, SimTime submitted,
                  SimTime start);
  void job_finished(std::size_t index);
  // Stack::retire()s every job finished during the last sim().run(); called
  // after each run returns, never from job_finished.
  void retire_finished();

  ServiceConfig config_;
  std::optional<faultsim::FaultPlan> owned_plan_;
  cluster::Stack stack_;

  std::unique_ptr<ArrivalGenerator> gen_;
  std::optional<Arrival> pending_;
  std::vector<AdmissionOutcome> journal_;
  std::deque<Arrival> wait_queue_;
  // Every launched job's record, in launch order. A finished job keeps only
  // this: its workflow, engine and EchelonFlow member records are freed at
  // the end of the step it finished in (retire_finished).
  std::vector<ServiceJobRecord> jobs_;
  // The jobs still running, in launch order.
  std::vector<RunningJob> running_jobs_;
  // Jobs finished during the current sim().run(), awaiting retirement.
  std::vector<std::unique_ptr<cluster::BuiltJob>> finished_jobs_;
  // Seats placed by seat_ahead(); launch i takes seats_ahead_[i].
  std::vector<cluster::Seat> seats_ahead_;
  FinishHook finish_hook_;

  // Every flow's finish time, written by a flow listener when
  // config_.record_flow_finish is set.
  FlowFinishRecord flow_finish_;
  // Tardiness of every released EchelonFlow, observed by a release listener
  // in creation order; publish_metrics() adds the held complete ones.
  obs::Histogram released_tardiness_{obs::default_duration_bounds()};

  std::uint64_t completed_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t queued_total_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t tick_index_ = 0;
  std::uint64_t control_ticks_ = 0;
  SimTime last_arrival_at_ = -kTimeInfinity;
  SimTime last_finish_ = 0.0;  // the last job completion (0 before any)
  double wall_ms_ = 0.0;
  double build_ms_ = 0.0;

  // --- service-plane telemetry (DESIGN.md §15) ---
  // Deterministic telemetry state: prom-exported registry, SLO tracker,
  // flight ring. Rebuilt identically by snapshot replay.
  obs::MetricsRegistry telemetry_;
  // Wall-clock self-profile; kept OUT of telemetry_ so the exposition
  // stays bit-reproducible. Never serialized.
  obs::MetricsRegistry profile_;
  std::unique_ptr<SloTracker> slo_;
  std::unique_ptr<obs::FlightRecorder> flightrec_;
  TelemetryOutputs outputs_;
  std::uint64_t flush_index_ = 0;  // floor(now / metrics_every) at last flush
  std::uint64_t flushes_ = 0;
  std::uint64_t faults_seen_ = 0;     // injector events_fired already noted
  std::uint64_t abandons_seen_ = 0;   // injector abandons already noted
  std::uint64_t at_risk_ = 0;         // jobs latched deadline-at-risk
  std::vector<double> link_util_scratch_;
  // Cached per-link gauge handles (stable registry node addresses),
  // resolved on the first flush so later flushes skip the name building.
  std::vector<obs::Gauge*> link_gauges_;

  const std::vector<AdmissionOutcome>* replay_expected_ = nullptr;
};

}  // namespace echelon::service
