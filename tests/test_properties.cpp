// Cross-cutting property tests: invariants that must hold for every
// (paradigm, rank count, scheduler) combination and for random EchelonFlow
// instances.
//
//  * liveness: every generated workflow drains under every scheduler;
//  * binding: every declared EchelonFlow completes with consistent
//    bookkeeping (started == finished == cardinality, tardiness >= 0 for
//    the head-anchored arrangements);
//  * conservation: GPU busy time equals the sum of task durations, flow
//    finish times are ordered after their starts;
//  * dominance: on a single bottleneck, the EchelonFlow scheduler's
//    realized tardiness matches analytic preemptive EDF.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "cluster/stack.hpp"
#include "common/rng.hpp"
#include "echelon/echelon_madd.hpp"
#include "echelon/exhaustive.hpp"
#include "echelon/registry.hpp"
#include "netsim/simulator.hpp"
#include "topology/builders.hpp"

namespace echelon {
namespace {

using cluster::SchedulerKind;
using workload::Paradigm;

// (paradigm, ranks, scheduler)
using Combo = std::tuple<Paradigm, int, SchedulerKind>;

class ParadigmScheduler : public ::testing::TestWithParam<Combo> {};

TEST_P(ParadigmScheduler, DrainsWithConsistentBookkeeping) {
  const auto [paradigm, ranks, kind] = GetParam();

  const cluster::JobSpec spec{
      .paradigm = paradigm,
      .model = workload::make_mlp(std::max(3, ranks), 128, 4),
      .gpu = workload::a100(),
      .ranks = ranks,
      .iterations = 2,
      .buckets = 2,
      .micro_batches = 3};
  const bool needs_ps = paradigm == Paradigm::kDpPs;
  cluster::Stack stack(kind, cluster::FabricKind::kBigSwitch,
                       ranks + (needs_ps ? 1 : 0), 1e8, 1.0);
  netsim::Simulator& sim = stack.sim();
  cluster::BuiltJob job;
  stack.build(job, spec, stack.place(spec), JobId{0}, {});
  ASSERT_TRUE(job.generated.workflow.is_acyclic());

  // Conservation checks via listeners.
  double task_seconds = 0.0;
  sim.add_task_listener(
      [&task_seconds](netsim::Simulator&, const netsim::ComputeTask& t) {
        EXPECT_GE(t.start_time, t.enqueue_time - kTimeEpsilon);
        EXPECT_NEAR(t.finish_time - t.start_time, t.duration, 1e-9);
        task_seconds += t.duration;
      });
  sim.add_flow_listener([](netsim::Simulator&, const netsim::Flow& f) {
    EXPECT_GE(f.finish_time, f.start_time - kTimeEpsilon);
    EXPECT_LE(f.remaining, 1e-6);
  });

  job.engine->launch(0.0);
  sim.run();
  ASSERT_TRUE(job.engine->finished())
      << workload::to_string(paradigm) << " x" << ranks << " under "
      << cluster::to_string(kind);

  // Every declared EchelonFlow completed with the declared cardinality.
  for (const EchelonFlowId id : job.generated.echelonflows) {
    const ef::EchelonFlow& h = stack.registry().get(id);
    EXPECT_TRUE(h.complete()) << h.label();
    EXPECT_EQ(h.started_count(), h.cardinality());
    EXPECT_GE(h.tardiness(), 0.0);  // head flow's transfer time is > 0
  }

  // GPU busy time equals total task seconds.
  double busy = 0.0;
  for (std::size_t w = 0; w < sim.worker_count(); ++w) {
    busy += sim.worker(WorkerId{w}).busy_time;
  }
  EXPECT_NEAR(busy, task_seconds, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, ParadigmScheduler,
    ::testing::Combine(
        ::testing::Values(Paradigm::kDpAllReduce, Paradigm::kDpPs,
                          Paradigm::kPipeline, Paradigm::kTensor,
                          Paradigm::kFsdp, Paradigm::kExpert),
        ::testing::Values(2, 4),
        ::testing::Values(SchedulerKind::kFairSharing, SchedulerKind::kSrpt,
                          SchedulerKind::kCoflowMadd,
                          SchedulerKind::kSincronia,
                          SchedulerKind::kEchelonMadd,
                          SchedulerKind::kAalo)));

// ---------------------------------------------------------------------------
// Single-bottleneck dominance: the simulated EchelonFlow scheduler realizes
// the analytic preemptive-EDF tardiness on random staggered instances.
// ---------------------------------------------------------------------------

class EdfEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EdfEquivalence, SimulatorMatchesAnalyticEdf) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 17);
  const int n = 2 + static_cast<int>(rng.uniform_int(5));

  std::vector<ef::MiniFlow> flows;
  std::vector<Duration> offsets;
  double off = 0.0;
  double release = 0.0;
  for (int i = 0; i < n; ++i) {
    ef::MiniFlow f;
    release += rng.uniform(0.0, 2.0);
    f.release = release;
    f.size = rng.uniform(0.5, 4.0);
    offsets.push_back(off);
    off += rng.uniform(0.0, 2.0);
    flows.push_back(f);
  }
  for (int i = 0; i < n; ++i) {
    flows[static_cast<std::size_t>(i)].deadline =
        flows[0].release + offsets[static_cast<std::size_t>(i)];
  }

  auto fabric = topology::make_big_switch(2, 1.0);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  reg.attach(sim);
  ef::EchelonMaddScheduler sched(&reg);
  sim.set_scheduler(&sched);
  const EchelonFlowId id =
      reg.create(JobId{0}, ef::Arrangement::from_offsets(offsets));
  for (int i = 0; i < n; ++i) {
    sim.schedule_at(flows[static_cast<std::size_t>(i)].release,
                    [&, i](netsim::Simulator& s) {
                      s.submit_flow(netsim::FlowSpec{
                          .src = fabric.hosts[0],
                          .dst = fabric.hosts[1],
                          .size = flows[static_cast<std::size_t>(i)].size,
                          .group = id,
                          .index_in_group = i});
                    });
  }
  sim.run();

  const double analytic =
      ef::max_tardiness(flows, ef::simulate_edf(flows, 1.0));
  EXPECT_NEAR(reg.get(id).tardiness(), analytic, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, EdfEquivalence,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace echelon
