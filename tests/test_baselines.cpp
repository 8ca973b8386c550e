// Tests for the SRPT per-flow baseline and for EchelonFlow-MADD's ranking
// under registry weights.

#include <gtest/gtest.h>

#include "echelon/echelon_madd.hpp"
#include "echelon/registry.hpp"
#include "echelon/srpt.hpp"
#include "netsim/simulator.hpp"
#include "topology/builders.hpp"

namespace echelon::ef {
namespace {

using netsim::FlowSpec;
using netsim::Simulator;

TEST(Srpt, ShortestFlowPreempts) {
  auto fabric = topology::make_big_switch(2, 10.0);
  Simulator sim(&fabric.topo);
  SrptScheduler sched;
  sim.set_scheduler(&sched);
  const FlowId big = sim.submit_flow(FlowSpec{
      .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 80.0});
  sim.schedule_at(1.0, [&fabric](Simulator& s) {
    s.submit_flow(FlowSpec{
        .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 10.0});
  });
  sim.run();
  // big sends 10 in [0,1], then is preempted until the short flow drains.
  EXPECT_NEAR(sim.flow(FlowId{1}).finish_time, 2.0, 1e-9);
  EXPECT_NEAR(sim.flow(big).finish_time, 9.0, 1e-9);
}

TEST(Srpt, MinimizesMeanFctVsFairSharing) {
  auto run_mean_fct = [](bool srpt) {
    auto fabric = topology::make_big_switch(2, 10.0);
    Simulator sim(&fabric.topo);
    SrptScheduler sched;
    if (srpt) sim.set_scheduler(&sched);
    std::vector<FlowId> ids;
    for (const double size : {10.0, 20.0, 40.0, 80.0}) {
      ids.push_back(sim.submit_flow(FlowSpec{
          .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = size}));
    }
    sim.run();
    double sum = 0.0;
    for (const FlowId id : ids) sum += sim.flow(id).completion_time();
    return sum / static_cast<double>(ids.size());
  };
  EXPECT_LT(run_mean_fct(true), run_mean_fct(false));
  // SRPT serves 10,20,40,80 in order: FCTs 1,3,7,15 -> mean 6.5.
  EXPECT_NEAR(run_mean_fct(true), 6.5, 1e-9);
}

TEST(Srpt, WorkConservingAcrossPorts) {
  auto fabric = topology::make_big_switch(4, 10.0);
  Simulator sim(&fabric.topo);
  SrptScheduler sched;
  sim.set_scheduler(&sched);
  const FlowId a = sim.submit_flow(FlowSpec{
      .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 40.0});
  const FlowId b = sim.submit_flow(FlowSpec{
      .src = fabric.hosts[2], .dst = fabric.hosts[3], .size = 80.0});
  sim.run();
  EXPECT_NEAR(sim.flow(a).finish_time, 4.0, 1e-9);
  EXPECT_NEAR(sim.flow(b).finish_time, 8.0, 1e-9);  // disjoint ports: full rate
}

// The registry's weight scales the Eq. 4 objective only: ranking reads the
// achievable tardiness alone.
TEST(WeightedEchelon, RankingIgnoresRegistryWeight) {
  auto fabric = topology::make_big_switch(2, 10.0);
  Simulator sim(&fabric.topo);
  Registry reg;
  reg.attach(sim);
  EchelonMaddScheduler sched(&reg);
  sim.set_scheduler(&sched);
  const EchelonFlowId light =
      reg.create(JobId{0}, Arrangement::coflow(1), "light", 1.0);
  const EchelonFlowId heavy =
      reg.create(JobId{1}, Arrangement::coflow(1), "heavy", 4.0);
  const FlowId fl = sim.submit_flow(FlowSpec{.src = fabric.hosts[0],
                                             .dst = fabric.hosts[1],
                                             .size = 40.0,
                                             .group = light,
                                             .index_in_group = 0});
  (void)sim.submit_flow(FlowSpec{.src = fabric.hosts[0],
                                 .dst = fabric.hosts[1],
                                 .size = 40.0,
                                 .group = heavy,
                                 .index_in_group = 0});
  sim.run();
  // Equal tardiness: group key order (creation order) wins.
  EXPECT_NEAR(sim.flow(fl).finish_time, 4.0, 1e-9);
}

}  // namespace
}  // namespace echelon::ef
