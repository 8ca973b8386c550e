// Unit tests for the Varys-style Coflow scheduler (SEBF + MADD).

#include <gtest/gtest.h>

#include "echelon/coflow_madd.hpp"
#include "netsim/simulator.hpp"
#include "topology/builders.hpp"

namespace echelon::ef {
namespace {

using netsim::FlowSpec;
using netsim::Simulator;

struct CoflowFixture : ::testing::Test {
  CoflowFixture()
      : fabric(topology::make_big_switch(6, 10.0)), sim(&fabric.topo) {
    sim.set_scheduler(&sched);
  }
  topology::BuiltFabric fabric;
  Simulator sim;
  CoflowMaddScheduler sched;

  FlowId submit(std::size_t src, std::size_t dst, Bytes size,
                std::uint64_t group) {
    return sim.submit_flow(FlowSpec{.src = fabric.hosts[src],
                                    .dst = fabric.hosts[dst],
                                    .size = size,
                                    .group = EchelonFlowId{group}});
  }
};

TEST_F(CoflowFixture, NoFlowFinishesAfterGamma) {
  // One coflow, two flows of different sizes on disjoint port pairs. With
  // work conservation (Varys backfilling) the small flow may finish early,
  // but nothing finishes after the bottleneck completion time Gamma = 4.
  const FlowId a = submit(0, 1, 40.0, 0);
  const FlowId b = submit(2, 3, 10.0, 0);
  sim.run();
  EXPECT_NEAR(sim.flow(a).finish_time, 4.0, 1e-9);
  EXPECT_NEAR(sim.flow(b).finish_time, 1.0, 1e-9);  // backfilled to full rate
}

TEST_F(CoflowFixture, SharedPortStretchesGamma) {
  // Two flows of one coflow into the same ingress: Gamma = total/cap.
  const FlowId a = submit(0, 2, 30.0, 0);
  const FlowId b = submit(1, 2, 10.0, 0);
  sim.run();
  EXPECT_NEAR(sim.flow(a).finish_time, 4.0, 1e-9);
  EXPECT_NEAR(sim.flow(b).finish_time, 4.0, 1e-9);
}

TEST_F(CoflowFixture, SebfPrioritizesNarrowCoflow) {
  // Coflow 0 needs 8 s standalone; coflow 1 needs 1 s. SEBF runs coflow 1
  // first; coflow 0 is starved meanwhile on the shared port.
  const FlowId big = submit(0, 1, 80.0, 0);
  const FlowId small = submit(0, 1, 10.0, 1);
  sim.run();
  EXPECT_NEAR(sim.flow(small).finish_time, 1.0, 1e-9);
  EXPECT_NEAR(sim.flow(big).finish_time, 9.0, 1e-9);
}

TEST_F(CoflowFixture, WorkConservationUsesResidualPorts) {
  // Coflow 1 (higher priority, tiny) only uses ports 0->1; coflow 0's flow
  // on 2->3 is unobstructed and must run at full rate despite lower rank.
  const FlowId blocked = submit(0, 1, 80.0, 0);
  const FlowId free = submit(2, 3, 80.0, 0);
  const FlowId tiny = submit(0, 1, 10.0, 1);
  sim.run();
  EXPECT_NEAR(sim.flow(tiny).finish_time, 1.0, 1e-9);
  // `free` shares no port with `tiny`: bottleneck is its own coflow's
  // Gamma = 8 (Gamma is per-coflow; MADD paces both members together).
  EXPECT_NEAR(sim.flow(free).finish_time, 8.0, 1e-9);
  EXPECT_NEAR(sim.flow(blocked).finish_time, 9.0, 1e-9);
}

TEST_F(CoflowFixture, UngroupedFlowsActAsSingletons) {
  const FlowId a = sim.submit_flow(FlowSpec{
      .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 10.0});
  sim.run();
  EXPECT_NEAR(sim.flow(a).finish_time, 1.0, 1e-9);
}

TEST_F(CoflowFixture, DynamicArrivalRebalances) {
  // Fig. 2's coflow panel in miniature: staggered arrivals of one coflow
  // re-pace so all finish together.
  const FlowId a = submit(0, 1, 20.0, 0);
  sim.schedule_at(1.0, [this](Simulator&) { submit(2, 1, 20.0, 0); });
  sim.run();
  // t=1: a sent 10, rem 10; b rem 20. Shared ingress port: Gamma = 3.
  // Both finish at t = 4.
  EXPECT_NEAR(sim.flow(a).finish_time, 4.0, 1e-9);
  EXPECT_NEAR(sim.flow(FlowId{1}).finish_time, 4.0, 1e-9);
}

}  // namespace
}  // namespace echelon::ef
