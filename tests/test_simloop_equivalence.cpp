// Certification suite for the event-loop fast path (see DESIGN.md,
// "Event-loop fast path" and §6).
//
// The simulator loop keeps byte counts lazily (epoch-stamped, materialized
// once per reallocation) and reads completion instants off a min-heap. This
// suite certifies its results against their definitions with the
// tests/certify.hpp trace sink -- every allocation pass is feasible, capped
// and weighted max-min maximal; every flow's delivered bytes equal the
// integral of its rates when it parks or finishes; every complete
// EchelonFlow's tardiness matches Eq. 2 rebuilt from raw start and finish
// events (shared scaffolding lives in tests/equivalence_harness.hpp):
//
//   1. Randomized cluster-shaped runs across all six SchedulerKinds on both
//      big-switch and leaf-spine fabrics, driven through ServiceLoop.
//   2. Randomized simulator-level scenarios (timers + staggered flow
//      submissions), including run(deadline) stepping, which exercises the
//      deadline stamp + heap rebuild path, and runtime link-capacity
//      degradation and recovery.
//   3. run_sweep determinism: N-threaded sweeps produce results identical to
//      the serial ordering, including with per-job compute jitter (per-job
//      seeded RNG, so thread assignment cannot leak into results), plus the
//      parallel_for_indexed contract: every index runs exactly once at any
//      width, exceptions surface as in a serial loop (lowest index first),
//      width 1 stays on the calling thread and an empty range does nothing.
//   4. The harness's allocation-counting operator-new hook proves
//      steady-state event iterations (timer firing + rescheduling with live
//      flows) perform zero heap allocations: pooled EventQueue slots, pooled
//      timer callbacks, no per-event byte sweeps.
//   5. The shared completion tail: zero-byte flows complete instantly with
//      the canonical callback-before-listener order and never enter the
//      active set.

#include "equivalence_harness.hpp"

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/sweep.hpp"
#include "echelon/srpt.hpp"

namespace echelon {
namespace {

using cluster::ExperimentConfig;
using cluster::SchedulerKind;
using eqh::expect_same_result;
using eqh::small_trace;
using netsim::Simulator;

// A certified run must be clean and must have checked something: passes
// and byte conservation at finishes, and -- unless the scheduler caps every
// flow at a feasible rate, as every policy but fair sharing does --
// bottlenecks of flows below their cap.
void expect_certified(const certify::Report& r, bool some_below_cap = true) {
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_GT(r.passes, 0u) << r.summary();
  EXPECT_GT(r.byte_checks, 0u) << r.summary();
  if (some_below_cap) {
    EXPECT_GT(r.below_cap, 0u) << r.summary();
  }
}

// ============================================================================
// 1. Cluster-shaped certification: all schedulers x both fabrics
// ============================================================================

using CertifiedCluster = eqh::SchedFabricTest;

TEST_P(CertifiedCluster, AllocationsBytesAndTardiness) {
  const auto [kind, fabric] = GetParam();
  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const certify::Report r = certify::certified_service_run(
        small_trace(seed), {.scheduler = kind, .fabric = fabric});
    expect_certified(r, kind == SchedulerKind::kFairSharing);
    EXPECT_GT(r.echelonflows, 0u) << r.summary();
  }
}

TEST_P(CertifiedCluster, WithComputeJitter) {
  const auto [kind, fabric] = GetParam();
  const certify::Report r = certify::certified_service_run(
      small_trace(7, /*jitter=*/0.05), {.scheduler = kind, .fabric = fabric});
  expect_certified(r, kind == SchedulerKind::kFairSharing);
  EXPECT_GT(r.echelonflows, 0u) << r.summary();
}

ECHELON_INSTANTIATE_SCHED_FABRIC(CertifiedCluster);

// ============================================================================
// 2. Simulator-level certification
// ============================================================================

// Runs one randomized scenario under the certifier; returns its report.
certify::Report certified_scenario(std::uint64_t seed,
                                   eqh::ScenarioOptions opt,
                                   std::size_t* completions = nullptr) {
  certify::Certifier cert;
  opt.certifier = &cert;
  const auto out = eqh::run_sim_scenario(seed, opt);
  if (completions != nullptr) *completions = out.trace.size();
  return cert.report();
}

TEST(SimLoopTrace, FairSharingCertified) {
  for (const std::uint64_t seed : {3u, 17u, 2026u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::size_t done = 0;
    expect_certified(certified_scenario(seed, {.flows = 60}, &done));
    EXPECT_EQ(done, 60u);
  }
}

TEST(SimLoopTrace, SrptCertified) {
  for (const std::uint64_t seed : {5u, 99u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ef::SrptScheduler srpt;
    expect_certified(certified_scenario(seed, {.flows = 50, .sched = &srpt}),
                     /*some_below_cap=*/false);
  }
}

TEST(SimLoopTrace, DeadlineSteppedCertified) {
  for (const std::uint64_t seed : {21u, 1234u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_certified(
        certified_scenario(seed, {.flows = 40, .stepped = true}));
  }
}

TEST(SimLoopTrace, RuntimeCapacityChurnCertified) {
  for (const std::uint64_t seed : {29u, 404u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::size_t done = 0;
    expect_certified(certified_scenario(
        seed, {.flows = 40, .capacity_churn = true}, &done));
    EXPECT_EQ(done, 40u);
  }
}

// ============================================================================
// 3. run_sweep determinism
// ============================================================================

std::vector<cluster::SweepPoint> make_sweep_points() {
  std::vector<cluster::SweepPoint> points;
  for (const auto kind :
       {SchedulerKind::kFairSharing, SchedulerKind::kSrpt,
        SchedulerKind::kCoflowMadd, SchedulerKind::kEchelonMadd,
        SchedulerKind::kCoordinator}) {
    ExperimentConfig cfg;
    cfg.scheduler = kind;
    cfg.hosts = 16;
    cfg.port_capacity = gbps(25);
    points.push_back({small_trace(31), cfg});
  }
  // A jittered point: per-job seeded RNG must make the result independent of
  // which worker thread runs it.
  ExperimentConfig jcfg;
  jcfg.scheduler = SchedulerKind::kEchelonMadd;
  jcfg.hosts = 16;
  jcfg.port_capacity = gbps(25);
  points.push_back({small_trace(31, /*jitter=*/0.1), jcfg});
  return points;
}

TEST(RunSweep, ThreadedEqualsSerial) {
  const auto points = make_sweep_points();
  const auto serial = cluster::run_sweep(points, {.threads = 1});
  ASSERT_EQ(serial.size(), points.size());
  for (const unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const auto parallel = cluster::run_sweep(points, {.threads = threads});
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("point " + std::to_string(i));
      expect_same_result(parallel[i], serial[i]);
    }
  }
}

TEST(RunSweep, EmptyAndSinglePoint) {
  EXPECT_TRUE(cluster::run_sweep({}, {.threads = 4}).empty());
  const auto points = make_sweep_points();
  const auto one =
      cluster::run_sweep({points[0]}, {.threads = 4});
  ASSERT_EQ(one.size(), 1u);
  expect_same_result(
      one[0], cluster::run_experiment(points[0].jobs, points[0].config));
}

TEST(RunSweep, LowestIndexExceptionWins) {
  for (const unsigned width : {1u, 4u, 8u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    std::atomic<int> ran{0};
    try {
      cluster::parallel_for_indexed(8, width, [&](std::size_t i) {
        ran.fetch_add(1);
        if (i == 5 || i == 2 || i == 7) {
          throw std::runtime_error("boom " + std::to_string(i));
        }
      });
      FAIL() << "expected exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 2");
    }
    // Every index ran exactly once despite the failures.
    EXPECT_EQ(ran.load(), 8);
  }
}

TEST(RunSweep, EveryIndexRunsExactlyOnceAtAnyWidth) {
  constexpr std::size_t kN = 1000;
  for (const unsigned width : {1u, 2u, 4u, 8u, 0u}) {
    std::vector<std::atomic<int>> hits(kN);
    cluster::parallel_for_indexed(kN, width, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "width " << width << " index " << i;
    }
  }
}

TEST(RunSweep, WidthOneAndSingleIndexRunOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  const auto check = [&](std::size_t) {
    if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
  };
  cluster::parallel_for_indexed(16, 1, check);
  cluster::parallel_for_indexed(1, 8, check);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(RunSweep, EmptyRangeDoesNothing) {
  for (const unsigned width : {1u, 4u, 0u}) {
    bool called = false;
    cluster::parallel_for_indexed(0, width,
                                  [&](std::size_t) { called = true; });
    EXPECT_FALSE(called) << "width " << width;
  }
}

// ============================================================================
// 4. Zero-allocation steady-state event iterations
// ============================================================================

TEST(SimLoopAlloc, TimerIterationsAllocationFree) {
  auto fabric = topology::make_big_switch(4, gbps(10));
  Simulator sim(&fabric.topo);

  // A population of long-lived flows so every event iteration runs with a
  // non-trivial active set (the seed loop would have drained bytes across
  // all of them per event).
  for (int i = 0; i < 64; ++i) {
    netsim::FlowSpec spec;
    spec.src = fabric.hosts[i % 4];
    spec.dst = fabric.hosts[(i + 1) % 4];
    spec.size = 1e15;  // never finishes within the test horizon
    spec.label = "bg" + std::to_string(i);
    sim.submit_flow(std::move(spec));
  }

  // Self-rescheduling timers. The callback captures only a context pointer
  // (8 bytes): within std::function's small-object buffer, so every
  // steady-state reschedule is allocation-free end to end.
  struct Ticker {
    int fired = 0;
    double t_end = 1.0;
    void fire(Simulator& s) {
      ++fired;
      if (s.now() < t_end) {
        Ticker* self = this;
        s.schedule_after(0.0005, [self](Simulator& s2) { self->fire(s2); });
      }
    }
  } ticker;

  // Warm-up: grows the event-queue heap/pools and the flow rate state to
  // their high-water marks.
  Ticker* tp = &ticker;
  sim.schedule_at(0.0, [tp](Simulator& s) { tp->fire(s); });
  sim.run(0.1);
  const int fired_before = ticker.fired;

  eqh::alloc_count_begin();
  sim.run(0.9);
  const std::uint64_t allocs = eqh::alloc_count_end();

  // The window really was timer-dense.
  EXPECT_GT(ticker.fired, fired_before + 500);
#if ECHELON_ALLOC_HOOK
  EXPECT_EQ(allocs, 0u)
      << "steady-state event iterations must not allocate";
#else
  (void)allocs;
#endif
  sim.run();  // drain cleanly (flows retire at the horizon via deadline stop)
}

// ============================================================================
// 5. Shared completion tail: zero-byte flows
// ============================================================================

TEST(ZeroByteFlow, InstantCompletionCanonicalOrder) {
  auto fabric = topology::make_big_switch(2, gbps(10));
  Simulator sim(&fabric.topo);

  std::vector<std::string> order;
  sim.add_flow_listener([&order](Simulator&, const netsim::Flow& f) {
    order.push_back("listener:" + f.spec.label);
  });

  netsim::FlowSpec spec;
  spec.src = fabric.hosts[0];
  spec.dst = fabric.hosts[1];
  spec.size = 0.0;
  spec.label = "ctl";
  const auto id = sim.submit_flow(
      std::move(spec), [&order](Simulator&, const netsim::Flow& f) {
        order.push_back("done:" + f.spec.label);
        EXPECT_EQ(f.state, netsim::FlowState::kFinished);
      });

  // Completed synchronously, never entered the active set.
  EXPECT_EQ(sim.active_flow_count(), 0u);
  EXPECT_TRUE(sim.flow(id).finished());
  EXPECT_EQ(sim.flow(id).finish_time, 0.0);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "done:ctl");      // per-flow callback first
  EXPECT_EQ(order[1], "listener:ctl");  // then global listeners
}

}  // namespace
}  // namespace echelon
