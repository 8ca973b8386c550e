// Shared harness for the equivalence and certification suites.
//
// The dense-state schedulers promise *bit identity* with their seed
// implementations (tests/test_dense_equivalence.cpp), and a sweep is
// bit-identical at any run_sweep width (tests/test_simloop_equivalence.cpp).
// The event loop and the water-fill are certified against their
// definitions instead (tests/certify.hpp): tests/test_simloop_equivalence.cpp,
// tests/test_route_class_equivalence.cpp and tests/test_faults.cpp, the
// last under fire. Every suite needs the same scaffolding:
//
//   - an allocation-counting operator-new hook (off under ASan/TSan),
//   - a bitwise ExperimentResult comparator,
//   - the small randomized cluster trace + a run_cluster(jobs, RunSpec)
//     entry point spanning the scheduler x fabric (x FaultPlan) matrix on
//     one test fabric, and certified_run, the same run with the certifier
//     watching its loop,
//   - the scheduler x fabric gtest param fixture with its name generator,
//   - the simulator-level randomized completion-trace scenario.
//
// This header is that scaffolding, defined once. Each test binary is a
// single translation unit, so the global operator new replacement below is
// defined exactly once per binary (replacement functions must not be
// inline; do not include this header from more than one TU of a binary).

#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "certify.hpp"
#include "cluster/experiment.hpp"
#include "cluster/trace.hpp"
#include "common/rng.hpp"
#include "echelon/coflow_madd.hpp"
#include "echelon/echelon_madd.hpp"
#include "echelon/registry.hpp"
#include "echelon/sincronia.hpp"
#include "echelon/srpt.hpp"
#include "faultsim/fault_plan.hpp"
#include "netsim/allocator.hpp"
#include "netsim/simulator.hpp"
#include "service/service.hpp"
#include "topology/builders.hpp"

// --- allocation-counting hook -----------------------------------------------
// Replaces the (unaligned) global new/delete with counting versions. Counting
// is off by default so gtest bookkeeping does not pollute the numbers.
//
// Disabled under ASan/TSan: the malloc-backed replacements fight the
// sanitizer allocator interceptors (operator-new-vs-free mismatch reports
// for allocations crossing the gtest shared-library boundary). Zero-
// allocation assertions become runtime skips there; UBSan keeps the hook
// live.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ECHELON_ALLOC_HOOK 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ECHELON_ALLOC_HOOK 0
#else
#define ECHELON_ALLOC_HOOK 1
#endif
#else
#define ECHELON_ALLOC_HOOK 1
#endif

namespace echelon::eqh {
inline std::atomic<bool> g_count_allocs{false};
inline std::atomic<std::uint64_t> g_alloc_count{0};

inline void alloc_count_begin() {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
}
[[nodiscard]] inline std::uint64_t alloc_count_end() {
  g_count_allocs.store(false, std::memory_order_relaxed);
  return g_alloc_count.load(std::memory_order_relaxed);
}
}  // namespace echelon::eqh

#if ECHELON_ALLOC_HOOK
// The replacements are malloc/free-backed by design; GCC's
// -Wmismatched-new-delete cannot see that new and delete were *both*
// replaced and flags every delete of a counted pointer.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  if (echelon::eqh::g_count_allocs.load(std::memory_order_relaxed)) {
    echelon::eqh::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // ECHELON_ALLOC_HOOK

// Bitwise double equality (0.0 vs -0.0 and NaN-safety is not needed: the
// simulator never produces either at an observation point; plain == gives
// the strictest portable check with readable gtest failure output).
#define EXPECT_BITEQ(a, b) EXPECT_EQ(a, b)

namespace echelon::eqh {

// ============================================================================
// Cluster-level runs
// ============================================================================

// One point in the equivalence matrix. Everything beyond scheduler/fabric
// defaults to the production configuration; equivalence tests vary exactly
// one axis (or compare whole-matrix crosses) while holding jobs fixed.
struct RunSpec {
  cluster::SchedulerKind scheduler = cluster::SchedulerKind::kEchelonMadd;
  cluster::FabricKind fabric = cluster::FabricKind::kBigSwitch;
  const faultsim::FaultPlan* plan = nullptr;  // nullptr = fault-free
  // Optional structured-event capture (differential suites compare whole
  // streams, not just end-of-run aggregates).
  obs::TraceSink* trace_sink = nullptr;
  obs::TraceDetail trace_detail = obs::TraceDetail::kFlow;
  // Optional run-level metrics export (ExperimentConfig::metrics).
  obs::MetricsRegistry* metrics = nullptr;
};

// The test fabric, written once: 16 hosts at 25 Gbps (ServiceConfig's
// defaults), leaf-spine at 2:1 oversubscription. Finish-time recording is
// off, as in run_experiment's own loop.
inline service::ServiceConfig run_config(const RunSpec& spec) {
  service::ServiceConfig cfg;
  cfg.scheduler = spec.scheduler;
  cfg.fabric = spec.fabric;
  cfg.oversubscription =
      spec.fabric == cluster::FabricKind::kLeafSpine ? 2.0 : 1.0;
  cfg.fault_plan = spec.plan;
  cfg.metrics = spec.metrics;
  if (spec.trace_sink != nullptr) {
    cfg.trace_sink = spec.trace_sink;
    cfg.trace_detail = spec.trace_detail;
  }
  cfg.record_flow_finish = false;
  return cfg;
}

inline cluster::ExperimentResult run_cluster(
    const std::vector<cluster::JobSpec>& jobs, const RunSpec& spec) {
  service::ServiceLoop loop(run_config(spec));
  return cluster::run_experiment(loop, jobs);
}

// The run_cluster run with the certifier watching its loop: allocations,
// byte conservation and tardiness of the run that produces the result.
// Every job must complete. The spec's trace sink is replaced by the
// certifier.
inline certify::Report certified_run(const std::vector<cluster::JobSpec>& jobs,
                                     RunSpec spec) {
  certify::Certifier cert;
  spec.trace_sink = &cert;
  spec.trace_detail = obs::TraceDetail::kFlow;
  service::ServiceLoop loop(run_config(spec));
  cert.watch(loop.sim());
  cert.watch(loop.registry());
  (void)cluster::run_experiment(loop, jobs);
  cert.certify_tardiness();
  certify::Report r = cert.report();
  if (loop.completed() != jobs.size()) {
    r.fail(std::to_string(loop.completed()) + " of " +
           std::to_string(jobs.size()) + " jobs completed");
  }
  return r;
}

// Bitwise trace-stream comparator for differential suites: both recorders
// must have seen the same events in the same order, field for field
// (timestamps and values compared as exact doubles), plus identical
// cumulative per-kind counts (which include ring-dropped events). Size the
// recorders so nothing drops, or the retained-window comparison weakens.
inline void expect_same_trace(const obs::TraceRecorder& a,
                              const obs::TraceRecorder& b) {
  EXPECT_EQ(a.recorded(), b.recorded());
  for (std::size_t k = 0; k < obs::kTraceKindCount; ++k) {
    EXPECT_EQ(a.count(static_cast<obs::TraceKind>(k)),
              b.count(static_cast<obs::TraceKind>(k)))
        << "kind " << obs::to_string(static_cast<obs::TraceKind>(k));
  }
  const std::vector<obs::TraceEvent> ea = a.events();
  const std::vector<obs::TraceEvent> eb = b.events();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].kind, eb[i].kind) << "event " << i;
    EXPECT_BITEQ(ea[i].t, eb[i].t) << "event " << i;
    EXPECT_EQ(ea[i].id, eb[i].id) << "event " << i;
    EXPECT_EQ(ea[i].job, eb[i].job) << "event " << i;
    EXPECT_EQ(ea[i].ctx, eb[i].ctx) << "event " << i;
    EXPECT_BITEQ(ea[i].value, eb[i].value) << "event " << i;
  }
}

// The fabric run_cluster builds, for chaos-profile target selection.
inline topology::BuiltFabric run_cluster_fabric(cluster::FabricKind fabric) {
  const service::ServiceConfig cfg = run_config({.fabric = fabric});
  return cluster::build_fabric(cfg.fabric, cfg.hosts, cfg.port_capacity,
                               cfg.oversubscription);
}

// The single bit-identical comparator: every deterministic ExperimentResult
// field must agree to the bit (wall_ms and build_ms are host timing and
// excluded). Fault counters are part of the contract -- two runs of the
// same plan must make identical reroute/park/abandon decisions.
inline void expect_same_result(const cluster::ExperimentResult& a,
                               const cluster::ExperimentResult& b) {
  EXPECT_EQ(a.scheduler_name, b.scheduler_name);
  EXPECT_BITEQ(a.makespan, b.makespan);
  EXPECT_BITEQ(a.total_tardiness, b.total_tardiness);
  EXPECT_BITEQ(a.weighted_total_tardiness, b.weighted_total_tardiness);
  EXPECT_EQ(a.control_invocations, b.control_invocations);
  EXPECT_EQ(a.fault_events, b.fault_events);
  EXPECT_EQ(a.flow_reroutes, b.flow_reroutes);
  EXPECT_EQ(a.flow_parks, b.flow_parks);
  EXPECT_EQ(a.flow_retries, b.flow_retries);
  EXPECT_EQ(a.flows_abandoned, b.flows_abandoned);
  EXPECT_BITEQ(a.flow_downtime, b.flow_downtime);
  EXPECT_EQ(a.peak_live_workflows, b.peak_live_workflows);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    const auto& ja = a.jobs[j];
    const auto& jb = b.jobs[j];
    EXPECT_EQ(ja.job, jb.job);
    EXPECT_EQ(ja.description, jb.description);
    EXPECT_BITEQ(ja.arrival, jb.arrival);
    EXPECT_BITEQ(ja.finish, jb.finish);
    EXPECT_BITEQ(ja.mean_gpu_idle_fraction, jb.mean_gpu_idle_fraction);
    ASSERT_EQ(ja.iteration_times.size(), jb.iteration_times.size());
    for (std::size_t k = 0; k < ja.iteration_times.size(); ++k) {
      EXPECT_BITEQ(ja.iteration_times[k], jb.iteration_times[k]);
    }
  }
}

// The small multi-paradigm trace every cluster-level equivalence test runs.
inline std::vector<cluster::JobSpec> small_trace(std::uint64_t seed,
                                                 double jitter = 0.0) {
  cluster::TraceConfig tcfg;
  tcfg.num_jobs = 6;
  tcfg.seed = seed;
  tcfg.arrival_rate = 3.0;
  tcfg.iterations = 2;
  tcfg.min_width = 1024;
  tcfg.max_width = 2048;
  tcfg.rank_choices = {2, 4};
  auto jobs = cluster::generate_trace(tcfg);
  if (jitter > 0.0) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      jobs[j].compute_jitter = jitter;
      jobs[j].jitter_seed = seed * 1000 + j;  // per-job stream
    }
  }
  return jobs;
}

// Seed budget for the randomized differential sweeps: CI sets the env var
// (e.g. ECHELON_SERVICE_SEEDS) low on sanitizer legs and leaves the larger
// default for the plain legs.
[[nodiscard]] inline int env_seed_budget(const char* name, int def) {
  if (const char* s = std::getenv(name)) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return def;
}

// ============================================================================
// The scheduler x fabric param fixture
// ============================================================================

using SchedFabricParam = std::tuple<cluster::SchedulerKind, cluster::FabricKind>;

class SchedFabricTest : public ::testing::TestWithParam<SchedFabricParam> {};

inline auto all_sched_fabric_params() {
  return ::testing::Combine(
      ::testing::Values(cluster::SchedulerKind::kFairSharing,
                        cluster::SchedulerKind::kSrpt,
                        cluster::SchedulerKind::kCoflowMadd,
                        cluster::SchedulerKind::kSincronia,
                        cluster::SchedulerKind::kEchelonMadd,
                        cluster::SchedulerKind::kAalo),
      ::testing::Values(cluster::FabricKind::kBigSwitch,
                        cluster::FabricKind::kLeafSpine));
}

inline std::string sched_fabric_name(
    const ::testing::TestParamInfo<SchedFabricParam>& info) {
  std::string name = cluster::to_string(std::get<0>(info.param));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  name += std::get<1>(info.param) == cluster::FabricKind::kBigSwitch
              ? "_bigswitch"
              : "_leafspine";
  return name;
}

// Instantiates a TEST_P suite over all six schedulers x both fabrics.
// `Suite` must be SchedFabricTest or an alias of it.
#define ECHELON_INSTANTIATE_SCHED_FABRIC(Suite)                        \
  INSTANTIATE_TEST_SUITE_P(AllSchedulersBothFabrics, Suite,            \
                           ::echelon::eqh::all_sched_fabric_params(),  \
                           ::echelon::eqh::sched_fabric_name)

// ============================================================================
// Simulator-level bitwise result comparator
// ============================================================================

// Trimmed-down result for suites that drive the Simulator directly (no
// cluster layer): every flow's completion time in FlowId order plus the
// registry aggregates. The overload below is the third face of the one
// bitwise-comparison contract (ExperimentResult, trace streams, SimResult).
struct SimResult {
  std::vector<SimTime> finish;
  Duration tardiness = 0.0;
  SimTime makespan = 0.0;
};

inline void expect_same_result(const SimResult& a, const SimResult& b,
                               const std::string& tag) {
  SCOPED_TRACE(tag);
  EXPECT_BITEQ(a.makespan, b.makespan);
  EXPECT_BITEQ(a.tardiness, b.tardiness);
  ASSERT_EQ(a.finish.size(), b.finish.size());
  for (std::size_t i = 0; i < a.finish.size(); ++i) {
    EXPECT_BITEQ(a.finish[i], b.finish[i]) << tag << " flow " << i;
  }
}

// ============================================================================
// Simulator-level randomized completion-trace scenarios
// ============================================================================

struct TraceEvent {
  std::uint64_t flow;
  double finish;
  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

struct ScenarioOptions {
  int flows = 60;
  // Uneven run(deadline) stepping: a stop moves only the clock, so the
  // resumed run continues from the same byte counts and heap.
  bool stepped = false;
  // Timers that degrade and restore random link capacities mid-run.
  bool capacity_churn = false;
  netsim::NetworkScheduler* sched = nullptr;  // nullptr = fair sharing
  obs::TraceSink* trace_sink = nullptr;  // kFlow detail when set
  // Certifies the run instead (kFlow detail); exclusive with trace_sink.
  certify::Certifier* certifier = nullptr;
};

struct ScenarioOutcome {
  std::vector<TraceEvent> trace;
  netsim::RateAllocator::Stats alloc_stats;
};

// Randomized scenario: `flows` submissions at staggered times via timers,
// random endpoints (with deliberate src == dst loopback collisions: those
// get an infinite rate and exercise the post-reallocation retirement sweep)
// and log-normal sizes, plus no-op timers sprinkled in between (they force
// event iterations that must not perturb byte accounting). Returns the
// exact completion trace -- the sequence of (flow id, finish time) pairs --
// plus the allocator's pass and fill counts.
inline ScenarioOutcome run_sim_scenario(std::uint64_t seed,
                                        const ScenarioOptions& opt) {
  auto fabric = topology::make_big_switch(8, gbps(10));
  netsim::Simulator sim(&fabric.topo);
  if (opt.sched != nullptr) sim.set_scheduler(opt.sched);
  if (opt.trace_sink != nullptr) {
    sim.set_trace(opt.trace_sink, obs::TraceDetail::kFlow);
  }
  if (opt.certifier != nullptr) {
    opt.certifier->watch(sim);
    sim.set_trace(opt.certifier, obs::TraceDetail::kFlow);
  }

  ScenarioOutcome out;
  sim.add_flow_listener(
      [&out](netsim::Simulator&, const netsim::Flow& f) {
        out.trace.push_back({f.id.value(), f.finish_time});
      });

  Rng rng(seed);
  for (int i = 0; i < opt.flows; ++i) {
    const double at = rng.uniform() * 0.5;
    const auto src = fabric.hosts[rng.uniform_int(fabric.hosts.size())];
    const auto dst = fabric.hosts[rng.uniform_int(fabric.hosts.size())];
    const double size = 1e6 * std::exp(2.0 * rng.normal());
    sim.schedule_at(at, [src, dst, size, i](netsim::Simulator& s) {
      netsim::FlowSpec spec;
      spec.src = src;
      spec.dst = dst;
      spec.size = size;
      s.submit_flow(spec, {}, "t" + std::to_string(i));
    });
    // No-op timer at an unrelated instant: forces an event iteration with no
    // allocation change.
    sim.schedule_at(rng.uniform() * 0.7, [](netsim::Simulator&) {});
  }

  if (opt.capacity_churn) {
    // Degrade a random host port at a random instant, restore it later.
    // Mutating the topology from a timer models mid-run failures; the
    // simulator is told via invalidate_allocation().
    topology::Topology* topo = &fabric.topo;
    for (int k = 0; k < 6; ++k) {
      const auto lid = LinkId{rng.uniform_int(fabric.topo.link_count())};
      const double full = fabric.topo.link(lid).capacity;
      const double degraded = full * (0.25 + 0.5 * rng.uniform());
      const double t_fail = 0.05 + rng.uniform() * 0.3;
      const double t_heal = t_fail + 0.05 + rng.uniform() * 0.2;
      sim.schedule_at(t_fail, [topo, lid, degraded](netsim::Simulator& s) {
        topo->set_link_capacity(lid, degraded);
        s.invalidate_allocation();
      });
      sim.schedule_at(t_heal, [topo, lid, full](netsim::Simulator& s) {
        topo->set_link_capacity(lid, full);
        s.invalidate_allocation();
      });
    }
  }

  if (opt.stepped) {
    double t = 0.0;
    Rng step_rng(seed ^ 0x9e3779b97f4a7c15ull);
    for (int k = 0; k < 40; ++k) {
      t += 0.01 + 0.05 * step_rng.uniform();
      sim.run(t);
    }
  }
  sim.run();
  EXPECT_EQ(sim.active_flow_count(), 0u);
  out.alloc_stats = sim.alloc_stats();
  return out;
}

}  // namespace echelon::eqh
