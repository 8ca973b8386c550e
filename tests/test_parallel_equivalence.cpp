// Golden-equivalence suite for intra-run parallelism (DESIGN.md §10).
//
// The contract under test: the one data-parallel section a run puts on the
// shared ThreadPool -- per-component water-fill in the RateAllocator, with
// its per-worker trace shards -- produces results *bit-identical* to the
// serial path at ANY thread count. Parallelism here is a pure speed knob:
// the parallel fill executes the same floating-point expressions on the
// same operands as the serial loop and merges in ascending-component order,
// so nothing observable may move. The fill dispatches only above
// RateAllocator::kMinParallelFillFlows member flows, so the sections that
// must exercise the pool use a wide fixture and assert that it dispatched.
// The suites sweep the threads axis {1, 2, 8, 0 = all participants} across:
//
//   1. ThreadPool / WorkerScratch unit semantics (coverage, lowest-index
//      exception, nested-dispatch inlining, pass epochs),
//   2. the full scheduler x fabric cluster matrix, fault-free and under a
//      chaos fault plan (below the cutoff: the threads knob must be inert
//      end to end),
//   3. flow-detail trace streams of the wide fixture (per-worker kCompFill
//      shards must merge into the exact serial emission order),
//   4. the wide fixture's completion trace, plus a serve-shaped threads=2
//      run that must make no dispatch at all.

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "common/scratch.hpp"
#include "equivalence_harness.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"

namespace echelon {
namespace {

namespace eqh = ::echelon::eqh;

// The threads axis every equivalence sweep walks: serial baseline, a small
// width, the acceptance-criteria width, and "all shared-pool participants".
// The shared pool is sized max(8, hardware_concurrency), so 2 and 8 truly
// dispatch to distinct workers even on small CI boxes.
constexpr unsigned kThreadAxis[] = {2, 8, 0};

// ============================================================================
// 1. ThreadPool semantics
// ============================================================================

TEST(ThreadPoolTest, SharedPoolHasAtLeastEightParticipants) {
  // The 8-thread equivalence axis must genuinely multithread everywhere.
  EXPECT_GE(ThreadPool::shared().concurrency(), 8u);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnceAtAnyWidth) {
  ThreadPool& pool = ThreadPool::shared();
  for (const unsigned width : {1u, 2u, 3u, 8u, 0u}) {
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.run(kN, width, [&](unsigned, std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "width " << width << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, LowestIndexExceptionWinsSerialAndParallel) {
  ThreadPool& pool = ThreadPool::shared();
  for (const unsigned width : {1u, 8u}) {
    std::atomic<std::size_t> attempted{0};
    bool caught = false;
    try {
      pool.run(64, width, [&](unsigned, std::size_t i) {
        attempted.fetch_add(1, std::memory_order_relaxed);
        if (i == 7 || i == 3 || i == 40) {
          throw std::runtime_error("fail@" + std::to_string(i));
        }
      });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_STREQ(e.what(), "fail@3") << "width " << width;
    }
    EXPECT_TRUE(caught);
    // Exceptions do not abort the dispatch: every index is still attempted
    // (matching the sweep runner's historical contract).
    EXPECT_EQ(attempted.load(), 64u) << "width " << width;
  }
}

TEST(ThreadPoolTest, NestedDispatchRunsInlineSerially) {
  ThreadPool& pool = ThreadPool::shared();
  EXPECT_FALSE(ThreadPool::in_parallel_region());
  std::atomic<std::size_t> inner_total{0};
  std::atomic<bool> saw_region_flag{true};
  pool.run(8, 8, [&](unsigned, std::size_t) {
    if (!ThreadPool::in_parallel_region()) saw_region_flag = false;
    // A nested run must not wait on pool workers (they are busy running
    // *this* lambda) -- it degrades to an inline serial loop on the
    // calling worker. Deadlock here would hang the test.
    std::atomic<std::size_t> local{0};
    pool.run(16, 8, [&](unsigned w, std::size_t) {
      EXPECT_EQ(w, 0u);  // inline execution reports worker 0
      local.fetch_add(1, std::memory_order_relaxed);
    });
    inner_total.fetch_add(local.load(), std::memory_order_relaxed);
  });
  EXPECT_TRUE(saw_region_flag.load());
  EXPECT_EQ(inner_total.load(), 8u * 16u);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST(ThreadPoolTest, WidthOneRunsOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool::shared().run(4, 1, [&](unsigned w, std::size_t) {
    EXPECT_EQ(w, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(WorkerScratchTest, ValuesPersistAcrossPasses) {
  // Arena semantics: a new pass keeps every slot's value (warm vectors stay
  // warm); only the debug owner bindings reset.
  WorkerScratch<int> ws;
  ws.begin_pass(4);
  for (unsigned w = 0; w < 4; ++w) ws.at(w) = static_cast<int>(w) + 10;
  ws.begin_pass(4);
  for (unsigned w = 0; w < 4; ++w) EXPECT_EQ(ws.at(w), static_cast<int>(w) + 10);
}

// ============================================================================
// 2. Cluster-level threads-axis bit identity
// ============================================================================

using ParallelEquivalence = eqh::SchedFabricTest;

TEST_P(ParallelEquivalence, ThreadsAxisBitIdentical) {
  const auto [scheduler, fabric] = GetParam();
  const auto jobs = eqh::small_trace(/*seed=*/91, /*jitter=*/0.1);

  eqh::RunSpec spec;
  spec.scheduler = scheduler;
  spec.fabric = fabric;
  spec.threads = 1;
  const auto serial = eqh::run_cluster(jobs, spec);
  for (const unsigned threads : kThreadAxis) {
    spec.threads = threads;
    const auto wide = eqh::run_cluster(jobs, spec);
    eqh::expect_same_result(serial, wide);
  }
}

TEST_P(ParallelEquivalence, ChaosFaultPlanThreadsAxisBitIdentical) {
  const auto [scheduler, fabric] = GetParam();
  const auto jobs = eqh::small_trace(/*seed=*/47);

  faultsim::ChaosProfile profile;
  profile.seed = 9;
  profile.horizon = 1.5;
  profile.link_faults = 3;
  profile.brownouts = 2;
  profile.stragglers = 2;
  const auto fabric_shape = eqh::run_cluster_fabric(fabric);
  std::size_t workers = 0;
  for (const auto& j : jobs) workers += static_cast<std::size_t>(j.ranks);
  const faultsim::FaultPlan plan =
      faultsim::from_chaos(profile, fabric_shape.topo, workers, jobs.size());

  eqh::RunSpec spec;
  spec.scheduler = scheduler;
  spec.fabric = fabric;
  spec.plan = &plan;
  spec.threads = 1;
  const auto serial = eqh::run_cluster(jobs, spec);
  for (const unsigned threads : kThreadAxis) {
    spec.threads = threads;
    const auto wide = eqh::run_cluster(jobs, spec);
    eqh::expect_same_result(serial, wide);
  }
}

ECHELON_INSTANTIATE_SCHED_FABRIC(ParallelEquivalence);

// ============================================================================
// 3. Trace streams: per-worker shards merge into the serial emission order
// ============================================================================

// The wide simulator fixture (eqh::ScenarioOptions::wide): kWideFlows
// flows over the four link-disjoint host pairs of the 8-host switch, i.e.
// four contention components whose fills together hold more than
// RateAllocator::kMinParallelFillFlows members. Twice the cutoff plus
// headroom: passes keep filling above the cutoff until more than half the
// flows have finished.
constexpr int kWideFlows = 2400;
static_assert(kWideFlows >= 2 * netsim::RateAllocator::kMinParallelFillFlows);

eqh::ScenarioOptions wide_options() {
  eqh::ScenarioOptions opt;
  opt.flows = kWideFlows;
  opt.wide = true;
  opt.stepped = true;
  opt.capacity_churn = true;
  return opt;
}

TEST(TracedParallelEquivalence, WideFixtureTraceStreamIdenticalAcrossThreads) {
  // Flow-detail tracing emits one kCompFill/kClassFill pair per filled
  // component; dispatched fills record them into per-worker shards, which
  // must merge into exactly the serial emission order.
  eqh::ScenarioOptions opt = wide_options();
  obs::TraceRecorder serial_rec(1u << 18);
  opt.trace_sink = &serial_rec;
  const auto serial = eqh::run_sim_scenario(/*seed=*/73, opt);
  EXPECT_GT(serial_rec.count(obs::TraceKind::kCompFill), 0u);

  for (const unsigned threads : kThreadAxis) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    opt.threads = threads;
    obs::TraceRecorder wide_rec(1u << 18);
    opt.trace_sink = &wide_rec;
    const std::uint64_t before = ThreadPool::shared().dispatches();
    const auto wide = eqh::run_sim_scenario(/*seed=*/73, opt);
    EXPECT_GT(ThreadPool::shared().dispatches(), before);
    EXPECT_EQ(serial.trace, wide.trace);
    eqh::expect_same_trace(serial_rec, wide_rec);
  }
}

// ============================================================================
// 4. The allocator fill on the pool: wide fixture vs serve-shaped work
// ============================================================================

TEST(SimLevelParallelTest, WideFixtureDispatchesAndStaysBitIdentical) {
  eqh::ScenarioOptions opt = wide_options();
  opt.threads = 1;
  const std::uint64_t serial_before = ThreadPool::shared().dispatches();
  const auto serial = eqh::run_sim_scenario(/*seed=*/2024, opt);
  ASSERT_EQ(serial.trace.size(), static_cast<std::size_t>(kWideFlows));
  EXPECT_EQ(ThreadPool::shared().dispatches(), serial_before)
      << "threads=1 must never touch the pool";

  for (const unsigned threads : kThreadAxis) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    opt.threads = threads;
    const std::uint64_t before = ThreadPool::shared().dispatches();
    const auto wide = eqh::run_sim_scenario(/*seed=*/2024, opt);
    EXPECT_GT(ThreadPool::shared().dispatches(), before)
        << "the wide fixture no longer reaches the pool";
    ASSERT_EQ(wide.trace.size(), serial.trace.size());
    for (std::size_t i = 0; i < serial.trace.size(); ++i) {
      EXPECT_EQ(serial.trace[i].flow, wide.trace[i].flow) << "event " << i;
      EXPECT_BITEQ(serial.trace[i].finish, wide.trace[i].finish);
    }
    EXPECT_EQ(serial.alloc_stats.passes, wide.alloc_stats.passes);
    EXPECT_EQ(serial.alloc_stats.components, wide.alloc_stats.components);
    EXPECT_EQ(serial.alloc_stats.components_filled,
              wide.alloc_stats.components_filled);
    EXPECT_EQ(serial.alloc_stats.classes, wide.alloc_stats.classes);
  }
}

TEST(SimLevelParallelTest, ServeShapedRunNeverDispatches) {
  // The `serve` shape at reduced scale: Poisson arrivals on a 64-host 2:1
  // leaf-spine, two threads. Its passes fill a few dozen flows at most,
  // below the work cutoff, so the run must stay on the calling thread -- a
  // dispatch here costs more than the fill it would split. Fair sharing,
  // so the passes do fill (EchelonFlow-MADD's caps fit and skip the fill,
  // which would make the no-dispatch check vacuous).
  service::ServiceConfig cfg;
  cfg.scheduler = cluster::SchedulerKind::kFairSharing;
  cfg.fabric = cluster::FabricKind::kLeafSpine;
  cfg.hosts = 64;
  cfg.oversubscription = 2.0;
  cfg.threads = 2;
  cluster::TraceConfig trace;
  trace.num_jobs = 30;
  trace.arrival_rate = 8.0;
  service::ServiceLoop loop(cfg);
  loop.set_generator(std::make_unique<service::PoissonArrivalGenerator>(trace));
  const std::uint64_t before = ThreadPool::shared().dispatches();
  while (loop.step()) {
  }
  loop.drain();
  EXPECT_EQ(loop.result().completed, 30u);
  EXPECT_GT(loop.sim().alloc_stats().components_filled, 0u);
  EXPECT_EQ(ThreadPool::shared().dispatches(), before);
}

}  // namespace
}  // namespace echelon
