// End-to-end benchmark driver (see bench/e2e/README.md).
//
//   bench_e2e --workload NAME [--seed N] [--traced]
//
// Runs one workload once in this fresh process and prints one JSON object as
// the last line of stdout: the result digest, correctness checks, setup and
// drive-loop wall time, step latency percentiles and, with --traced, the
// per-layer ledger. bench/e2e/run.py spawns this binary, measures process
// wall time and peak RSS from outside, and aggregates repetitions.
//
// Every layer is timed from outside the simulator through public interfaces
// only: a NetworkScheduler decorator around the loop's scheduler, a coarse
// TraceSink that timestamps control-pass and allocation-pass events,
// ServiceLoop's wall-clock profile, and a flow-arrival listener whose
// (src, dst, seed) log is replayed through a fresh RouteTable afterwards.
//
// The driver is a closed loop: one thread calls ServiceLoop::step() back to
// back. Arrivals are Poisson in *simulated* time, so simulated queueing is
// independent of host speed and there is no wall-clock schedule to fall
// behind. Nothing is warmed up: users pay every cost on every run.
//
// Inputs: each workload's job population is drawn once from a fixed trace
// seed; --seed draws the arrival process over it (a random order and fresh
// Poisson gaps). Drawing the population from --seed as well made host cost
// swing 14-45% between seeds, which no regression bound can absorb.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/experiment.hpp"
#include "cluster/trace.hpp"
#include "common/rng.hpp"
#include "netsim/scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/arrivals.hpp"
#include "service/service.hpp"
#include "service/slo.hpp"
#include "topology/route_table.hpp"

#ifndef ECHELON_BUILD_TYPE
#define ECHELON_BUILD_TYPE "unspecified"
#endif

namespace {

using namespace echelon;
using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// --- workloads ---------------------------------------------------------------

struct ServeSpec {
  const char* name;
  cluster::FabricKind fabric;
  double rate;  // Poisson arrivals per simulated second
  int jobs;
  unsigned threads;
  bool queued_slo;  // queue-with-cap admission plus SLO telemetry
};

// Why each workload exists is recorded in bench/e2e/README.md.
constexpr ServeSpec kServe[] = {
    {"serve-leafspine", cluster::FabricKind::kLeafSpine, 8.0, 1000, 1, false},
    {"serve-threads2", cluster::FabricKind::kLeafSpine, 8.0, 1000, 2, false},
    {"serve-queued-slo", cluster::FabricKind::kBigSwitch, 16.0, 1500, 1, true},
};

constexpr const char* kClusterSweep = "cluster-sweep";
constexpr int kClusterJobs = 150;
constexpr int kClusterIterations = 8;
constexpr cluster::SchedulerKind kSweepSchedulers[] = {
    cluster::SchedulerKind::kFairSharing, cluster::SchedulerKind::kSrpt,
    cluster::SchedulerKind::kCoflowMadd, cluster::SchedulerKind::kSincronia,
    cluster::SchedulerKind::kEchelonMadd};

constexpr int kHosts = 64;
constexpr int kServeIterations = 2;
constexpr std::uint64_t kPopulationSeed = 42;

// The fixed population of `jobs` jobs in a seeded order with seeded Poisson
// arrival times (the first at t = 0, as cluster::generate_trace does).
std::vector<cluster::JobSpec> make_jobs(int jobs, double rate, int iterations,
                                        std::uint64_t seed) {
  cluster::TraceConfig tc;
  tc.num_jobs = jobs;
  tc.arrival_rate = rate;
  tc.seed = kPopulationSeed;
  tc.iterations = iterations;
  std::vector<cluster::JobSpec> out = cluster::generate_trace(tc);
  Rng rng(seed);
  for (std::size_t i = out.size() - 1; i > 0; --i) {
    std::swap(out[i], out[rng.uniform_int(i + 1)]);
  }
  SimTime clock = 0.0;
  for (cluster::JobSpec& j : out) {
    j.arrival = clock;
    clock += rng.exponential(rate);
  }
  return out;
}

// Replays a prepared arrival schedule into a ServiceLoop.
class ScheduleGenerator final : public service::ArrivalGenerator {
 public:
  explicit ScheduleGenerator(std::vector<cluster::JobSpec> jobs)
      : jobs_(std::move(jobs)) {}

  [[nodiscard]] std::optional<service::Arrival> next() override {
    if (next_ == jobs_.size()) return std::nullopt;
    const cluster::JobSpec& job = jobs_[next_++];
    return service::Arrival{job.arrival, job};
  }
  [[nodiscard]] const char* kind() const noexcept override {
    return "schedule";
  }

 private:
  std::vector<cluster::JobSpec> jobs_;
  std::size_t next_ = 0;
};

// --- output ------------------------------------------------------------------

class Fnv {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double d) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    add(bits);
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Flat JSON object writer; keys are fixed identifiers that need no escaping.
class Json {
 public:
  void num(std::string_view key, double v) {
    char buf[32];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    raw(key, buf);
  }
  void count(std::string_view key, std::uint64_t v) {
    raw(key, std::to_string(v));
  }
  void str(std::string_view key, std::string_view v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n') ? ' ' : c;
    }
    raw(key, quoted + "\"");
  }
  void flag(std::string_view key, bool v) { raw(key, v ? "true" : "false"); }
  void raw(std::string_view key, std::string_view json) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += json;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// Nearest-rank quantile of an ascending sample.
[[nodiscard]] double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

// Collects correctness failures; the first few go into the JSON verdict.
class Checks {
 public:
  void require(bool ok, std::string_view what) {
    if (!ok && errors_.size() < 8) errors_.emplace_back(what);
    failed_ |= !ok;
  }
  [[nodiscard]] bool ok() const noexcept { return !failed_; }
  [[nodiscard]] std::string summary() const {
    std::string s;
    for (const std::string& e : errors_) s += (s.empty() ? "" : "; ") + e;
    return s;
  }

 private:
  std::vector<std::string> errors_;
  bool failed_ = false;
};

// --- ledger instruments ------------------------------------------------------

// Forwards every hook to the scheduler it wraps and times control().
class TimedScheduler final : public netsim::NetworkScheduler {
 public:
  explicit TimedScheduler(netsim::NetworkScheduler* inner) : inner_(inner) {}

  void on_flow_arrival(netsim::Simulator& sim,
                       const netsim::Flow& flow) override {
    inner_->on_flow_arrival(sim, flow);
  }
  void on_flow_departure(netsim::Simulator& sim,
                         const netsim::Flow& flow) override {
    inner_->on_flow_departure(sim, flow);
  }
  void on_topology_change(netsim::Simulator& sim) override {
    inner_->on_topology_change(sim);
  }
  void mark_job_dirty(JobId job) override { inner_->mark_job_dirty(job); }
  void mark_all_jobs_dirty() override { inner_->mark_all_jobs_dirty(); }
  void control(netsim::Simulator& sim,
               std::span<netsim::Flow*> active) override {
    const Clock::time_point start = Clock::now();
    inner_->control(sim, active);
    control_end_ = Clock::now();
    busy_ += control_end_ - start;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] Clock::time_point control_end() const noexcept {
    return control_end_;
  }
  [[nodiscard]] double busy_s() const { return seconds(busy_); }

 private:
  netsim::NetworkScheduler* inner_;
  Clock::time_point control_end_{};
  Clock::duration busy_{};
};

// Coarse trace sink timing the control plane. kControlPass is recorded just
// before the scheduler runs and kAllocPass is the last statement of the
// allocator's pass, so their gap is scheduler control plus rate allocation;
// with a TimedScheduler attached, the gap from control() returning to
// kAllocPass is allocation alone.
class LedgerSink final : public obs::TraceSink {
 public:
  void set_scheduler(const TimedScheduler* sched) noexcept { sched_ = sched; }
  void reset() noexcept { ctlplane_ = allocate_ = {}; }

  using obs::TraceSink::record;
  void record(const obs::TraceEvent& ev, std::string_view) override {
    if (ev.kind == obs::TraceKind::kControlPass) {
      pass_start_ = Clock::now();
    } else if (ev.kind == obs::TraceKind::kAllocPass) {
      const Clock::time_point now = Clock::now();
      ctlplane_ += now - pass_start_;
      if (sched_ != nullptr) allocate_ += now - sched_->control_end();
    }
  }

  [[nodiscard]] double ctlplane_s() const { return seconds(ctlplane_); }
  [[nodiscard]] double allocate_s() const { return seconds(allocate_); }

 private:
  const TimedScheduler* sched_ = nullptr;
  Clock::time_point pass_start_{};
  Clock::duration ctlplane_{};
  Clock::duration allocate_{};
};

struct RouteKey {
  NodeId src;
  NodeId dst;
  std::uint64_t seed;
};

[[nodiscard]] double profile_sum_s(const obs::MetricsSnapshot& snap,
                                   std::string_view phase) {
  const std::string name = "service.profile." + std::string(phase) + "_ms";
  const obs::MetricsSnapshot::Hist* h = snap.find_histogram(name);
  return h == nullptr ? 0.0 : h->sum / 1e3;
}

[[nodiscard]] double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

// --- serve workloads ---------------------------------------------------------

service::ServiceConfig serve_config(const ServeSpec& spec) {
  service::ServiceConfig cfg;
  cfg.scheduler = cluster::SchedulerKind::kEchelonMadd;
  cfg.fabric = spec.fabric;
  cfg.hosts = kHosts;
  cfg.oversubscription = 2.0;  // leaf-spine only
  cfg.threads = spec.threads;
  if (spec.queued_slo) {
    cfg.admission.policy = service::AdmissionPolicy::kQueueWithCap;
    cfg.admission.max_running = 8;
    cfg.admission.queue_cap = 4000;
    cfg.telemetry.metrics_every = 0.1;
    cfg.telemetry.flightrec_capacity = 256;
    std::string err;
    auto objectives =
        service::parse_slo_spec("jct<=20@0.1,queue_wait<=5@0.1", &err);
    if (!objectives) throw std::logic_error("bad SLO spec: " + err);
    cfg.telemetry.slo.objectives = std::move(*objectives);
  }
  return cfg;
}

void run_serve(const ServeSpec& spec, std::uint64_t seed, bool traced,
               Clock::time_point main_start, Json& out, Checks& checks) {
  // Instruments are declared before the loop so they outlive it.
  LedgerSink sink;
  std::optional<TimedScheduler> timed;
  std::vector<RouteKey> route_keys;

  service::ServiceConfig cfg = serve_config(spec);
  if (traced) {
    cfg.trace_sink = &sink;
    cfg.trace_detail = obs::TraceDetail::kCoarse;
    cfg.telemetry.profile = true;
  }
  service::ServiceLoop loop(cfg);
  loop.set_generator(std::make_unique<ScheduleGenerator>(
      make_jobs(spec.jobs, spec.rate, kServeIterations, seed)));
  if (traced) {
    timed.emplace(&loop.sim().scheduler());
    sink.set_scheduler(&*timed);
    loop.sim().set_scheduler(&*timed);
    loop.sim().add_flow_arrival_listener(
        [&route_keys](netsim::Simulator&, const netsim::Flow& f) {
          if (f.spec.src == f.spec.dst) return;  // loopback: never routed
          route_keys.push_back(
              {f.spec.src, f.spec.dst,
               f.spec.route_hint != 0 ? f.spec.route_hint : f.id.value()});
        });
  }

  std::vector<double> step_us;
  step_us.reserve(static_cast<std::size_t>(spec.jobs) * 16);
  const Clock::time_point loop_start = Clock::now();
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    if (!loop.step()) break;
    step_us.push_back(seconds(Clock::now() - t0) * 1e6);
  }
  loop.drain();
  const double loop_s = seconds(Clock::now() - loop_start);

  const service::ServiceResult r = loop.result();
  Fnv digest;
  for (const SimTime t : r.flow_finish) digest.add(t);
  for (const service::ServiceJobRecord& j : r.jobs) {
    digest.add(static_cast<std::uint64_t>(j.paradigm));
    digest.add(j.submitted);
    digest.add(j.started);
    digest.add(j.finish);
    digest.add(static_cast<std::uint64_t>(j.finished));
    digest.add(static_cast<std::uint64_t>(j.deadline_at_risk));
  }

  checks.require(r.arrivals == static_cast<std::uint64_t>(spec.jobs),
                 "arrivals " + std::to_string(r.arrivals) + " != jobs");
  checks.require(r.completed == r.arrivals - r.rejected,
                 "completed != arrivals - rejected");
  checks.require(r.launched == r.completed, "launched jobs left unfinished");
  for (const service::ServiceJobRecord& j : r.jobs) {
    checks.require(j.finished && j.submitted <= j.started &&
                       j.started <= j.finish && std::isfinite(j.finish),
                   "job lifecycle out of order");
  }
  for (const SimTime t : r.flow_finish) {
    checks.require(std::isfinite(t) && t >= 0.0 && t <= r.end,
                   "flow finish time outside [0, end]");
  }
  checks.require(std::isfinite(r.total_tardiness),
                 "total tardiness not finite");

  std::sort(step_us.begin(), step_us.end());
  out.str("digest", digest.hex());
  out.count("attempted", r.arrivals);
  out.count("rejected", r.rejected);
  out.count("queued", r.queued);
  out.count("completed", r.completed);
  out.num("setup_s", seconds(loop_start - main_start));
  out.num("loop_s", loop_s);
  out.num("jobs_per_s", static_cast<double>(r.completed) / loop_s);
  out.count("steps", step_us.size());
  out.num("step_p50_us", quantile(step_us, 0.5));
  out.num("step_p999_us", quantile(step_us, 0.999));
  out.str("step_tail", "p99.9");
  if (!traced) return;

  // --- per-layer ledger (traced run only) ---
  const obs::MetricsSnapshot prof = loop.profile_snapshot();
  const double admission = profile_sum_s(prof, "admission");
  const double launch = profile_sum_s(prof, "launch");
  const double flush = profile_sum_s(prof, "flush");
  const double control = timed->busy_s();
  const double allocate = sink.allocate_s();

  // Replays the run's route lookups, in arrival order, through a fresh
  // table on the same topology: an estimate of routing's share of the
  // residual (the live table is warm and interleaved with other work).
  topology::RouteTable fresh(&loop.sim().topology());
  std::uint64_t routed = 0;
  const Clock::time_point replay_start = Clock::now();
  for (const RouteKey& k : route_keys) {
    routed += fresh.route(k.src, k.dst, k.seed).has_value() ? 1 : 0;
  }
  const double replay_s = seconds(Clock::now() - replay_start);
  checks.require(routed == route_keys.size(), "route replay found no path");

  // One Registry::total_tardiness() call at run end (median of five).
  std::vector<double> tard_us;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    const Duration total = loop.registry().total_tardiness();
    tard_us.push_back(seconds(Clock::now() - t0) * 1e6);
    checks.require(total == r.total_tardiness, "total tardiness unstable");
  }
  std::sort(tard_us.begin(), tard_us.end());

  std::uint64_t complete_groups = 0;
  for (const ef::EchelonFlow* g : loop.registry().all()) {
    complete_groups += g->complete() ? 1 : 0;
  }

  Json layers;
  layers.num("service.step_s", loop_s);
  layers.num("service.admission_s", admission);
  layers.num("service.launch_s", launch);
  layers.num("service.flush_s", flush);
  layers.num("sched.control_s", control);
  layers.num("alloc.allocate_s", allocate);
  layers.num("netsim.other_s",
             loop_s - admission - launch - flush - control - allocate);
  layers.num("route.replay_s", replay_s);
  layers.num("registry.total_tardiness_us", quantile(tard_us, 0.5));
  out.raw("layers", layers.text());

  const netsim::SchedStats& ss = loop.scheduler().sched_stats();
  const netsim::RateAllocator::Stats& as = loop.sim().alloc_stats();
  const topology::RouteTable::Stats& rs = loop.sim().routes().stats();
  Json counts;
  counts.count("service.steps", r.steps);
  counts.count("service.control_ticks", r.control_ticks);
  counts.count("service.flushes", r.telemetry_flushes);
  counts.count("sched.passes", ss.passes);
  counts.count("sched.full_passes", ss.full_passes);
  counts.count("sched.scoped_passes", ss.scoped_passes);
  counts.count("sched.pass_skips", ss.pass_skips);
  counts.count("registry.echelonflows", complete_groups);
  counts.count("alloc.passes", as.passes);
  counts.count("alloc.components_filled", as.components_filled);
  counts.num("alloc.cache_hit_ratio",
             ratio(as.components_reused, as.components));
  counts.num("alloc.flows_per_class", ratio(as.class_members, as.classes));
  counts.count("route.lookups", rs.lookups);
  counts.count("route.bfs", rs.computations);
  counts.num("route.hit_ratio", ratio(rs.hits, rs.lookups));
  counts.count("route.distinct", loop.sim().routes().size());
  counts.count("route.replay_lookups", route_keys.size());
  counts.count("sim.flows", loop.sim().flow_count());
  out.raw("counts", counts.text());
}

// --- cluster sweep -----------------------------------------------------------

void run_cluster(std::uint64_t seed, bool traced, Clock::time_point main_start,
                 Json& out, Checks& checks) {
  const std::vector<cluster::JobSpec> jobs =
      make_jobs(kClusterJobs, 2.0, kClusterIterations, seed);

  LedgerSink sink;
  Fnv digest;
  Json layers;
  std::vector<double> point_us;
  double run_s = 0.0;
  double launch_s = 0.0;
  double ctlplane_s = 0.0;
  std::uint64_t completed = 0;
  std::vector<obs::MetricsSnapshot> point_metrics;

  for (const cluster::SchedulerKind kind : kSweepSchedulers) {
    cluster::ExperimentConfig cfg;
    cfg.scheduler = kind;
    cfg.fabric = cluster::FabricKind::kBigSwitch;
    cfg.hosts = kHosts;
    cfg.port_capacity = gbps(25);
    obs::MetricsRegistry metrics;
    if (traced) {
      // Bounds the per-pass link series the registry samples; only the
      // run-level counters are read.
      metrics.set_series_budget(64);
      cfg.trace_sink = &sink;
      cfg.trace_detail = obs::TraceDetail::kCoarse;
      cfg.metrics = &metrics;
    }
    sink.reset();
    const Clock::time_point t0 = Clock::now();
    const cluster::ExperimentResult r = cluster::run_experiment(jobs, cfg);
    const double call_s = seconds(Clock::now() - t0);

    const std::string name = cluster::to_string(kind);
    const double sim_s = r.wall_ms / 1e3;
    point_us.push_back(call_s * 1e6);
    run_s += sim_s;
    launch_s += call_s - sim_s;
    ctlplane_s += sink.ctlplane_s();

    digest.add(r.total_tardiness);
    digest.add(r.weighted_total_tardiness);
    digest.add(r.makespan);
    checks.require(r.jobs.size() == jobs.size(), name + ": jobs missing");
    checks.require(std::isfinite(r.total_tardiness),
                   name + ": total tardiness not finite");
    for (const cluster::JobMetrics& jm : r.jobs) {
      digest.add(jm.finish);
      for (const Duration it : jm.iteration_times) digest.add(it);
      const bool done =
          jm.iteration_times.size() ==
              static_cast<std::size_t>(kClusterIterations) &&
          std::isfinite(jm.finish) && jm.finish >= jm.arrival;
      completed += done ? 1 : 0;
      checks.require(done, name + ": job unfinished or out of order");
    }

    if (traced) {
      layers.num("cluster." + name + ".run_s", sim_s);
      layers.num("cluster." + name + ".ctlplane_s", sink.ctlplane_s());
      point_metrics.push_back(metrics.snapshot());
    }
  }
  const double sweep_s = seconds(Clock::now() - main_start);

  const std::uint64_t attempted =
      jobs.size() * std::size(kSweepSchedulers);
  std::sort(point_us.begin(), point_us.end());
  out.str("digest", digest.hex());
  out.count("attempted", attempted);
  out.count("rejected", 0);
  out.count("queued", 0);
  out.count("completed", completed);
  out.num("setup_s", sweep_s - run_s);
  out.num("loop_s", run_s);
  out.num("jobs_per_s", static_cast<double>(completed) / run_s);
  // No step loop here: a sweep point (one run_experiment call) is the unit
  // a caller waits on, and five points support a median and a maximum only.
  out.count("steps", point_us.size());
  out.num("step_p50_us", quantile(point_us, 0.5));
  out.num("step_p999_us", point_us.back());
  out.str("step_tail", "max");
  if (!traced) return;

  layers.num("cluster.run_s", run_s);
  layers.num("cluster.launch_s", launch_s);
  layers.num("cluster.ctlplane_s", ctlplane_s);
  layers.num("cluster.other_s", run_s - ctlplane_s);
  out.raw("layers", layers.text());

  // Counters sum over the sweep; ratios are recomputed from the sums.
  const obs::MetricsSnapshot sweep = obs::merge_snapshots(point_metrics);
  const auto sum = [&sweep](std::string_view name) -> std::uint64_t {
    const std::uint64_t* v = sweep.find_counter(name);
    return v == nullptr ? 0 : *v;
  };
  const obs::MetricsSnapshot::Hist* tard =
      sweep.find_histogram("echelonflow.tardiness_s");
  Json counts;
  counts.count("sched.passes", sum("sched.passes"));
  counts.count("sched.full_passes", sum("sched.full_passes"));
  counts.count("sched.scoped_passes", sum("sched.scoped_passes"));
  counts.count("sched.pass_skips", sum("sched.pass_skips"));
  counts.count("registry.echelonflows", tard == nullptr ? 0 : tard->count);
  counts.count("alloc.passes", sum("alloc.passes"));
  counts.count("alloc.components_filled", sum("alloc.components_filled"));
  counts.num("alloc.cache_hit_ratio", ratio(sum("alloc.components_reused"),
                                            sum("alloc.components")));
  counts.num("alloc.flows_per_class",
             ratio(sum("alloc.class_members"), sum("alloc.classes")));
  counts.count("route.lookups", sum("routes.lookups"));
  counts.count("route.bfs", sum("routes.computations"));
  counts.num("route.hit_ratio",
             ratio(sum("routes.cache_hits"), sum("routes.lookups")));
  counts.count("route.distinct", sum("routes.distinct"));
  counts.count("sim.flows", sum("sim.flows"));
  out.raw("counts", counts.text());
}

int usage() {
  std::cerr << "usage: bench_e2e --workload NAME [--seed N] [--traced]\n"
               "workloads:";
  for (const ServeSpec& s : kServe) std::cerr << ' ' << s.name;
  std::cerr << ' ' << kClusterSweep << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point main_start = Clock::now();
  std::string workload;
  std::uint64_t seed = 42;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      const std::string_view text = argv[++i];
      std::size_t used = 0;
      try {
        seed = std::stoull(std::string(text), &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (used == 0 || used != text.size()) return usage();
    } else if (arg == "--traced") {
      traced = true;
    } else {
      return usage();
    }
  }

  const ServeSpec* serve = nullptr;
  for (const ServeSpec& s : kServe) {
    if (workload == s.name) serve = &s;
  }
  if (serve == nullptr && workload != kClusterSweep) return usage();

  Json out;
  out.str("workload", workload);
  out.count("seed", seed);
  out.flag("traced", traced);
  out.str("build_type", ECHELON_BUILD_TYPE);
  // CLOCK_MONOTONIC reading at main entry; the runner subtracts its own
  // reading taken before spawning, so setup_s covers process start too.
  out.num("main_mono_s", seconds(main_start.time_since_epoch()));
  Checks checks;
  try {
    if (serve != nullptr) {
      run_serve(*serve, seed, traced, main_start, out, checks);
    } else {
      run_cluster(seed, traced, main_start, out, checks);
    }
  } catch (const std::exception& e) {
    checks.require(false, std::string("exception: ") + e.what());
  }
  out.flag("ok", checks.ok());
  out.str("error", checks.summary());
  std::cout << out.text() << std::endl;
  return checks.ok() ? 0 : 1;
}
