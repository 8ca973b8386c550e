// Unit tests for the EchelonFlow-MADD scheduler: EDF behaviour, Property 2
// (Coflow is a special case), inter-EchelonFlow ranking, and work
// conservation.

#include <gtest/gtest.h>

#include "echelon/coflow_madd.hpp"
#include "echelon/echelon_madd.hpp"
#include "echelon/registry.hpp"
#include "netsim/simulator.hpp"
#include "topology/builders.hpp"

namespace echelon::ef {
namespace {

using netsim::FlowSpec;
using netsim::Simulator;

struct EchelonFixture : ::testing::Test {
  EchelonFixture()
      : fabric(topology::make_big_switch(6, 10.0)),
        sim(&fabric.topo),
        sched(&registry) {
    registry.attach(sim);
    sim.set_scheduler(&sched);
  }

  FlowId submit(std::size_t src, std::size_t dst, Bytes size,
                EchelonFlowId group, int index) {
    return sim.submit_flow(FlowSpec{.src = fabric.hosts[src],
                                    .dst = fabric.hosts[dst],
                                    .size = size,
                                    .group = group,
                                    .index_in_group = index});
  }

  topology::BuiltFabric fabric;
  Simulator sim;
  Registry registry;
  EchelonMaddScheduler sched;
};

TEST_F(EchelonFixture, StaggeredDeadlinesServeEdfOrder) {
  // Pipeline arrangement, both flows released together on one port pair.
  // EDF gives the earlier deadline full rate first.
  const EchelonFlowId ef =
      registry.create(JobId{0}, Arrangement::pipeline(2, 1.0));
  const FlowId a = submit(0, 1, 20.0, ef, 0);  // d = 0
  const FlowId b = submit(0, 1, 20.0, ef, 1);  // d = 1
  sim.run();
  EXPECT_NEAR(sim.flow(a).finish_time, 2.0, 1e-9);
  EXPECT_NEAR(sim.flow(b).finish_time, 4.0, 1e-9);
}

TEST_F(EchelonFixture, Property2CoflowArrangementMatchesCoflowMadd) {
  // With an Eq. 5 arrangement, EchelonFlow-MADD must reproduce Coflow-MADD
  // exactly: same finish time for all members at the bottleneck bound.
  const EchelonFlowId ef = registry.create(JobId{0}, Arrangement::coflow(2));
  const FlowId a = submit(0, 2, 30.0, ef, 0);
  const FlowId b = submit(1, 2, 10.0, ef, 1);
  sim.run();
  const SimTime ea = sim.flow(a).finish_time;
  const SimTime eb = sim.flow(b).finish_time;

  // Reference run under CoflowMadd.
  auto fabric2 = topology::make_big_switch(6, 10.0);
  Simulator sim2(&fabric2.topo);
  CoflowMaddScheduler cf;
  sim2.set_scheduler(&cf);
  const FlowId a2 = sim2.submit_flow(FlowSpec{.src = fabric2.hosts[0],
                                              .dst = fabric2.hosts[2],
                                              .size = 30.0,
                                              .group = EchelonFlowId{0}});
  const FlowId b2 = sim2.submit_flow(FlowSpec{.src = fabric2.hosts[1],
                                              .dst = fabric2.hosts[2],
                                              .size = 10.0,
                                              .group = EchelonFlowId{0}});
  sim2.run();
  EXPECT_NEAR(ea, sim2.flow(a2).finish_time, 1e-9);
  EXPECT_NEAR(eb, sim2.flow(b2).finish_time, 1e-9);
  EXPECT_NEAR(ea, 4.0, 1e-9);
  EXPECT_NEAR(eb, 4.0, 1e-9);
}

TEST_F(EchelonFixture, LateFlowCatchesUpAtFullRate) {
  // Member 1 starts long after its ideal finish time has passed; the
  // scheduler gives it full catch-up rate.
  const EchelonFlowId ef =
      registry.create(JobId{0}, Arrangement::pipeline(2, 0.5));
  submit(0, 1, 10.0, ef, 0);  // finishes at t=1
  sim.schedule_at(5.0, [this, ef](Simulator&) {
    submit(0, 1, 10.0, ef, 1);  // d_1 = 0.5, long past
  });
  sim.run();
  EXPECT_NEAR(sim.flow(FlowId{1}).finish_time, 6.0, 1e-9);  // full rate
}

TEST_F(EchelonFixture, SmallestTardinessFirstRanking) {
  // EF A can be cleared fast (small); EF B is big. Default ranking serves A
  // first on the shared port.
  const EchelonFlowId big = registry.create(JobId{0}, Arrangement::coflow(1));
  const EchelonFlowId small =
      registry.create(JobId{1}, Arrangement::coflow(1));
  const FlowId fb = submit(0, 1, 80.0, big, 0);
  const FlowId fs = submit(0, 1, 10.0, small, 0);
  sim.run();
  EXPECT_NEAR(sim.flow(fs).finish_time, 1.0, 1e-9);
  EXPECT_NEAR(sim.flow(fb).finish_time, 9.0, 1e-9);
}

TEST_F(EchelonFixture, WorkConservationAcrossEchelonFlows) {
  // EF A occupies ports 0->1; EF B on 2->3 must be unthrottled.
  const EchelonFlowId a = registry.create(JobId{0}, Arrangement::coflow(1));
  const EchelonFlowId b = registry.create(JobId{1}, Arrangement::coflow(1));
  const FlowId fa = submit(0, 1, 40.0, a, 0);
  const FlowId fbid = submit(2, 3, 40.0, b, 0);
  sim.run();
  EXPECT_NEAR(sim.flow(fa).finish_time, 4.0, 1e-9);
  EXPECT_NEAR(sim.flow(fbid).finish_time, 4.0, 1e-9);
}

TEST_F(EchelonFixture, UngroupedFlowStillServed) {
  const FlowId f = sim.submit_flow(FlowSpec{
      .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 20.0});
  sim.run();
  EXPECT_NEAR(sim.flow(f).finish_time, 2.0, 1e-9);
}

TEST_F(EchelonFixture, MeasuredTardinessMatchesEq2) {
  const EchelonFlowId ef =
      registry.create(JobId{0}, Arrangement::pipeline(2, 1.0));
  submit(0, 1, 20.0, ef, 0);
  submit(0, 1, 20.0, ef, 1);
  sim.run();
  const EchelonFlow& h = registry.get(ef);
  ASSERT_TRUE(h.complete());
  // Finishes at 2 and 4 vs ideals 0 and 1 -> tardiness max(2, 3) = 3.
  EXPECT_NEAR(h.tardiness(), 3.0, 1e-9);
  EXPECT_NEAR(*h.flow_tardiness(0), 2.0, 1e-9);
  EXPECT_NEAR(*h.flow_tardiness(1), 3.0, 1e-9);
}

TEST_F(EchelonFixture, FsdpStagedArrangementServesStagesInOrder) {
  // Two stages of two flows each, staggered by 10 s: stage 0 must be served
  // (and finish) before stage 1 when all four flows contend for one port.
  const EchelonFlowId ef = registry.create(
      JobId{0}, Arrangement::staged({2, 2}, {0.0, 10.0}));
  const FlowId s0a = submit(0, 1, 10.0, ef, 0);
  const FlowId s0b = submit(2, 1, 10.0, ef, 1);
  const FlowId s1a = submit(0, 1, 10.0, ef, 2);
  const FlowId s1b = submit(2, 1, 10.0, ef, 3);
  sim.run();
  // Stage 0: shared ingress -> both finish at 2; stage 1 backfills behind
  // and completes at 4.
  EXPECT_NEAR(sim.flow(s0a).finish_time, 2.0, 1e-9);
  EXPECT_NEAR(sim.flow(s0b).finish_time, 2.0, 1e-9);
  EXPECT_NEAR(sim.flow(s1a).finish_time, 4.0, 1e-9);
  EXPECT_NEAR(sim.flow(s1b).finish_time, 4.0, 1e-9);
}

}  // namespace
}  // namespace echelon::ef
