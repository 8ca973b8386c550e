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
//      big-switch and leaf-spine fabrics, driven through ServiceLoop, and
//      the same matrix sliced at run(deadline) stops: a stop moves only the
//      clock, so a sliced run equals one run() bit for bit.
//   2. Randomized simulator-level scenarios (timers + staggered flow
//      submissions), including uneven run(deadline) stepping and runtime
//      link-capacity degradation and recovery.
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
//   6. Retained-state layouts (DESIGN.md §6, §13): adding workers and
//      queueing tasks allocates nothing per worker or per queued task, and
//      the EchelonFlow registry allocates nothing per EchelonFlow object and
//      never moves one.

#include "equivalence_harness.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/stack.hpp"
#include "cluster/sweep.hpp"
#include "common/chunked_store.hpp"
#include "echelon/registry.hpp"
#include "echelon/srpt.hpp"
#include "service/service.hpp"

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
    const certify::Report r = eqh::certified_run(
        small_trace(seed), {.scheduler = kind, .fabric = fabric});
    expect_certified(r, kind == SchedulerKind::kFairSharing);
    EXPECT_GT(r.echelonflows, 0u) << r.summary();
  }
}

TEST_P(CertifiedCluster, WithComputeJitter) {
  const auto [kind, fabric] = GetParam();
  const certify::Report r = eqh::certified_run(
      small_trace(7, /*jitter=*/0.05), {.scheduler = kind, .fabric = fabric});
  expect_certified(r, kind == SchedulerKind::kFairSharing);
  EXPECT_GT(r.echelonflows, 0u) << r.summary();
}

// Runs `jobs` on a Stack, every job built and launched at its arrival up
// front, stopping Simulator::run at each of `deadlines` before running to
// quiescence. Returns every flow's finish time, Σ tardiness and the last
// finish as the makespan (the clock ends at the last deadline when that
// comes later); `passes` receives the control invocations.
eqh::SimResult sliced_stack_run(const std::vector<cluster::JobSpec>& jobs,
                                SchedulerKind kind, cluster::FabricKind fabric,
                                const faultsim::FaultPlan* plan,
                                const std::vector<SimTime>& deadlines,
                                std::uint64_t* passes) {
  // 2 Gbps ports keep flows alive across many deadlines.
  cluster::Stack stack(kind, fabric, 16, gbps(2),
                       fabric == cluster::FabricKind::kLeafSpine ? 2.0 : 1.0);
  Simulator& sim = stack.sim();
  eqh::SimResult out;
  sim.add_flow_listener([&out](Simulator&, const netsim::Flow& f) {
    if (out.finish.size() <= f.id.value()) {
      out.finish.resize(f.id.value() + 1, kTimeInfinity);
    }
    out.finish[f.id.value()] = f.finish_time;
  });
  std::vector<cluster::Seat> seats;
  for (const cluster::JobSpec& job : jobs) seats.push_back(stack.place(job));
  stack.arm_faults(plan);
  std::vector<cluster::BuiltJob> built(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    stack.build(built[j], jobs[j], seats[j], JobId{j}, {});
    built[j].engine->launch(jobs[j].arrival);
  }
  for (const SimTime t : deadlines) sim.run(t);
  sim.run();
  for (const SimTime t : out.finish) out.makespan = std::max(out.makespan, t);
  out.tardiness = stack.registry().total_tardiness();
  *passes = sim.control_invocations();
  return out;
}

// A run(deadline) stop moves only the clock: slicing a run on the service's
// 10 ms tick grid, or at uneven instants, gives the finish times, Σ
// tardiness and control passes of one run() bit for bit, fault-free and
// under link faults and brownouts.
TEST_P(CertifiedCluster, SlicedRunMatchesOneRun) {
  const auto [kind, fabric] = GetParam();
  const auto jobs = small_trace(11);
  const topology::BuiltFabric built = eqh::run_cluster_fabric(fabric);
  faultsim::ChaosProfile p;
  p.seed = 3;
  p.horizon = 2.0;
  p.link_faults = 2;
  p.brownouts = 2;
  const faultsim::FaultPlan plan =
      faultsim::from_chaos(p, built.topo, 0, jobs.size());

  std::vector<SimTime> grid;
  for (int k = 1; k <= 300; ++k) grid.push_back(service::kTickPeriod * k);
  std::vector<SimTime> uneven;
  Rng rng(97);
  for (SimTime t = 0.0; t < 3.0; t += 0.002 + 0.05 * rng.uniform()) {
    uneven.push_back(t);
  }
  for (const faultsim::FaultPlan* fault_plan :
       {static_cast<const faultsim::FaultPlan*>(nullptr), &plan}) {
    SCOPED_TRACE(fault_plan != nullptr ? "link faults" : "fault-free");
    std::uint64_t whole_passes = 0;
    const eqh::SimResult whole =
        sliced_stack_run(jobs, kind, fabric, fault_plan, {}, &whole_passes);
    ASSERT_FALSE(whole.finish.empty());
    for (const auto* deadlines : {&grid, &uneven}) {
      std::uint64_t passes = 0;
      const eqh::SimResult sliced = sliced_stack_run(
          jobs, kind, fabric, fault_plan, *deadlines, &passes);
      eqh::expect_same_result(whole, sliced,
                              deadlines == &grid ? "tick grid" : "uneven");
      EXPECT_EQ(whole_passes, passes);
    }
  }
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
        SchedulerKind::kCoflowMadd, SchedulerKind::kEchelonMadd}) {
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
    sim.submit_flow(spec, {}, "bg" + std::to_string(i));
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
    order.push_back("listener:" + std::to_string(f.id.value()));
  });

  netsim::FlowSpec spec;
  spec.src = fabric.hosts[0];
  spec.dst = fabric.hosts[1];
  spec.size = 0.0;
  const auto id = sim.submit_flow(
      spec, [&order](Simulator&, const netsim::Flow& f) {
        order.push_back("done:" + std::to_string(f.id.value()));
        EXPECT_EQ(f.state, netsim::FlowState::kFinished);
      }, "ctl");

  // Completed synchronously, never entered the active set.
  EXPECT_EQ(sim.active_flow_count(), 0u);
  EXPECT_TRUE(sim.flow(id).finished());
  EXPECT_EQ(sim.flow(id).finish_time, 0.0);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "done:0");      // per-flow callback first
  EXPECT_EQ(order[1], "listener:0");  // then global listeners
}

// ============================================================================
// 6. Retained-state layouts
// ============================================================================

// Chunks a store of `n` > 0 records in chunks of `chunk` holds, plus the
// buffers its doubling chunk index takes to hold them (capacities 1, 2, 4,
// ... up to `chunks`): the allocations a ChunkedStore may make while growing
// to `n` records. Chunks are sized in bytes, so each store passes its own
// record type's chunk.
std::uint64_t chunk_allocations(std::size_t n, std::size_t chunk) {
  const std::size_t chunks = (n + chunk - 1) / chunk;
  return chunks + static_cast<std::uint64_t>(std::bit_width(chunks - 1)) + 1;
}

TEST(RetainedLayout, AddWorkerAllocatesOnlyToGrowTheWorkerVector) {
  auto fabric = topology::make_big_switch(2, gbps(10));
  Simulator sim(&fabric.topo);
  constexpr std::size_t kWorkers = 10000;
  eqh::alloc_count_begin();
  for (std::size_t i = 0; i < kWorkers; ++i) {
    (void)sim.add_worker(fabric.hosts[i % 2]);
  }
  const std::uint64_t allocs = eqh::alloc_count_end();
  EXPECT_EQ(sim.worker_count(), kWorkers);
#if ECHELON_ALLOC_HOOK
  // Doubling growth of workers_ only: at most ceil(log2 N) + 1 buffers.
  EXPECT_LE(allocs, static_cast<std::uint64_t>(std::bit_width(kWorkers - 1)) +
                        1)
      << "a worker must not allocate";
#else
  (void)allocs;
#endif
}

TEST(RetainedLayout, QueuedTasksAllocateOnlyTheirRecords) {
  auto fabric = topology::make_big_switch(2, gbps(10));
  Simulator sim(&fabric.topo);
  const WorkerId w = sim.add_worker(fabric.hosts[0]);
  // The first task occupies the GPU, so every later one queues behind it.
  (void)sim.enqueue_task(w, 1.0, {});
  constexpr std::size_t kQueued = 5000;
  eqh::alloc_count_begin();
  for (std::size_t i = 0; i < kQueued; ++i) {
    (void)sim.enqueue_task(w, 1e-3, {});
  }
  const std::uint64_t allocs = eqh::alloc_count_end();
  EXPECT_EQ(sim.worker(w).queued, kQueued);
#if ECHELON_ALLOC_HOOK
  EXPECT_LE(allocs, chunk_allocations(kQueued + 1, Simulator::kTaskChunk))
      << "a queued task must not allocate beyond its record";
#else
  (void)allocs;
#endif
  // The ready queue is FIFO: tasks run in the order they were queued.
  std::size_t finished = 0;
  sim.add_task_listener([&finished](Simulator&, const netsim::ComputeTask& t) {
    EXPECT_EQ(t.id, TaskId{finished++});
  });
  sim.run();
  EXPECT_EQ(finished, kQueued + 1);
  EXPECT_EQ(sim.worker(w).queued, 0u);
  EXPECT_FALSE(sim.worker(w).queue_head.valid());
  EXPECT_FALSE(sim.worker(w).queue_tail.valid());
}

TEST(RetainedLayout, RegistryCreateAllocatesOnlyTheMemberBlocks) {
  ef::Registry reg;
  const ef::Arrangement arrangement = ef::Arrangement::pipeline(4, 1.0);
  constexpr std::size_t kCreated = 5000;
  eqh::alloc_count_begin();
  for (std::size_t i = 0; i < kCreated; ++i) {
    (void)reg.create(JobId{i}, arrangement);
  }
  const std::uint64_t allocs = eqh::alloc_count_end();
  EXPECT_EQ(reg.size(), kCreated);
#if ECHELON_ALLOC_HOOK
  // One block per EchelonFlow for its members, offsets and label; the
  // EchelonFlows themselves live in the registry's chunks.
  constexpr std::size_t kChunk = ChunkedStore<ef::EchelonFlow>::kChunk;
  EXPECT_LE(allocs, kCreated + chunk_allocations(kCreated, kChunk))
      << "an EchelonFlow must not be allocated on its own";
#else
  (void)allocs;
#endif
}

TEST(RetainedLayout, RegistryReferencesSurviveLaterCreates) {
  ef::Registry reg;
  const EchelonFlowId first =
      reg.create(JobId{0}, ef::Arrangement::coflow(2), "first");
  const ef::EchelonFlow* address = &reg.get(first);
  for (std::size_t i = 1; i <= 5000; ++i) {
    (void)reg.create(JobId{i}, ef::Arrangement::coflow(1));
  }
  EXPECT_EQ(&reg.get(first), address);
  EXPECT_EQ(address->id(), first);
  EXPECT_EQ(address->label(), "first");
  EXPECT_EQ(address->members().size(), 2u);
}

}  // namespace
}  // namespace echelon
