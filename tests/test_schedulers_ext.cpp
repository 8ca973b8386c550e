// Tests for the extended baseline schedulers: Aalo-style non-clairvoyant
// multi-level queues and Sincronia-style BSSI ordering.

#include <gtest/gtest.h>

#include "echelon/aalo.hpp"
#include "echelon/sincronia.hpp"
#include "netsim/simulator.hpp"
#include "topology/builders.hpp"

namespace echelon::ef {
namespace {

using netsim::FlowSpec;
using netsim::Simulator;

// --- Aalo --------------------------------------------------------------------

struct AaloFixture : ::testing::Test {
  AaloFixture()
      : fabric(topology::make_big_switch(4, 10.0)),
        sim(&fabric.topo),
        sched(AaloConfig{.base_threshold = 20.0, .multiplier = 4.0,
                         .num_queues = 4}) {
    sim.set_scheduler(&sched);
  }
  FlowId submit(std::size_t src, std::size_t dst, Bytes size,
                std::uint64_t group) {
    return sim.submit_flow(FlowSpec{.src = fabric.hosts[src],
                                    .dst = fabric.hosts[dst],
                                    .size = size,
                                    .group = EchelonFlowId{group}});
  }
  topology::BuiltFabric fabric;
  Simulator sim;
  AaloScheduler sched;
};

TEST_F(AaloFixture, FreshGroupPreemptsAgedGroup) {
  // Group 0 sends enough to leave the first queue; a later-arriving fresh
  // group then takes strict priority, with no size knowledge involved.
  const FlowId old_flow = submit(0, 1, 100.0, 0);
  sim.schedule_at(3.0, [this](Simulator&) {  // group 0 has sent 30 > 20
    submit(0, 1, 10.0, 1);
  });
  sim.run();
  EXPECT_NEAR(sim.flow(FlowId{1}).finish_time, 4.0, 1e-9);  // preempts
  EXPECT_NEAR(sim.flow(old_flow).finish_time, 11.0, 1e-9);
}

TEST_F(AaloFixture, FifoWithinQueueLevel) {
  // Two small groups in the lowest queue: the first to arrive wins the
  // shared port outright (strict order, work-conserving).
  const FlowId a = submit(0, 1, 15.0, 0);
  const FlowId b = submit(0, 1, 15.0, 1);
  sim.run();
  EXPECT_NEAR(sim.flow(a).finish_time, 1.5, 1e-9);
  EXPECT_NEAR(sim.flow(b).finish_time, 3.0, 1e-9);
}

TEST_F(AaloFixture, DisjointPortsRunConcurrently) {
  const FlowId a = submit(0, 1, 50.0, 0);
  const FlowId b = submit(2, 3, 50.0, 1);
  sim.run();
  EXPECT_NEAR(sim.flow(a).finish_time, 5.0, 1e-9);
  EXPECT_NEAR(sim.flow(b).finish_time, 5.0, 1e-9);
}

// --- Sincronia ----------------------------------------------------------------

struct SincroniaFixture : ::testing::Test {
  SincroniaFixture()
      : fabric(topology::make_big_switch(6, 10.0)), sim(&fabric.topo) {
    sim.set_scheduler(&sched);
  }
  FlowId submit(std::size_t src, std::size_t dst, Bytes size,
                std::uint64_t group) {
    return sim.submit_flow(FlowSpec{.src = fabric.hosts[src],
                                    .dst = fabric.hosts[dst],
                                    .size = size,
                                    .group = EchelonFlowId{group}});
  }
  topology::BuiltFabric fabric;
  Simulator sim;
  SincroniaScheduler sched;
};

TEST_F(SincroniaFixture, LargestContributorOnBottleneckGoesLast) {
  // Both coflows share ingress 2; coflow 0 is the bigger contributor, so
  // BSSI schedules it last and the small coflow finishes first.
  const FlowId big = submit(0, 2, 60.0, 0);
  const FlowId small = submit(1, 2, 20.0, 1);
  sim.run();
  EXPECT_NEAR(sim.flow(small).finish_time, 2.0, 1e-9);
  EXPECT_NEAR(sim.flow(big).finish_time, 8.0, 1e-9);
}

TEST_F(SincroniaFixture, OrderRespectingButWorkConserving) {
  // The last-ordered coflow still uses ports the first one does not touch.
  const FlowId big = submit(0, 1, 60.0, 0);
  const FlowId big_side = submit(2, 3, 60.0, 0);
  const FlowId small = submit(0, 1, 20.0, 1);
  sim.run();
  EXPECT_NEAR(sim.flow(small).finish_time, 2.0, 1e-9);
  EXPECT_NEAR(sim.flow(big_side).finish_time, 6.0, 1e-9);  // disjoint ports
  EXPECT_NEAR(sim.flow(big).finish_time, 8.0, 1e-9);
}

TEST_F(SincroniaFixture, SingleCoflowUsesFullFabric) {
  const FlowId a = submit(0, 1, 40.0, 0);
  const FlowId b = submit(2, 3, 20.0, 0);
  sim.run();
  EXPECT_NEAR(sim.flow(a).finish_time, 4.0, 1e-9);
  EXPECT_NEAR(sim.flow(b).finish_time, 2.0, 1e-9);
}

TEST_F(SincroniaFixture, LowestLinkIdWinsABottleneckTie) {
  // Host h's egress port is link 2h and its ingress 2h + 1. Egress 0 and
  // ingress 3 both carry 40 bytes; coflow 0 is the bigger contributor on
  // egress 0 and coflow 1 on ingress 3. The lower LinkId (egress 0) wins
  // the tie, so coflow 0 goes last and coflow 1 takes both shared ports
  // first; were ingress 3 the bottleneck, the order would flip.
  const FlowId a_shared = submit(0, 3, 10.0, 0);
  const FlowId a_side = submit(0, 4, 20.0, 0);
  const FlowId b_shared = submit(1, 3, 30.0, 1);
  const FlowId b_side = submit(0, 5, 10.0, 1);
  sim.run();
  EXPECT_NEAR(sim.flow(b_side).finish_time, 1.0, 1e-9);
  EXPECT_NEAR(sim.flow(b_shared).finish_time, 3.0, 1e-9);
  EXPECT_NEAR(sim.flow(a_side).finish_time, 3.0, 1e-9);
  EXPECT_NEAR(sim.flow(a_shared).finish_time, 4.0, 1e-9);
}

TEST_F(SincroniaFixture, MeanCctBeatsFairOnContendedMix) {
  auto mean_cct = [](bool sincronia) {
    auto fabric = topology::make_big_switch(4, 10.0);
    Simulator sim(&fabric.topo);
    SincroniaScheduler sched;
    if (sincronia) sim.set_scheduler(&sched);
    std::vector<FlowId> ids;
    int group = 0;
    for (const double size : {10.0, 30.0, 60.0}) {
      ids.push_back(sim.submit_flow(
          FlowSpec{.src = fabric.hosts[0],
                   .dst = fabric.hosts[1],
                   .size = size,
                   .group = EchelonFlowId{static_cast<std::uint64_t>(group++)}}));
    }
    sim.run();
    double sum = 0.0;
    for (const FlowId id : ids) sum += sim.flow(id).completion_time();
    return sum / 3.0;
  };
  EXPECT_LT(mean_cct(true), mean_cct(false));
}

}  // namespace
}  // namespace echelon::ef
