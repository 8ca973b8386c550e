// Tests for the Expert-Parallel (MoE) paradigm -- the "future paradigm"
// extensibility demonstration.

#include <gtest/gtest.h>

#include "echelon/echelon_madd.hpp"
#include "echelon/registry.hpp"
#include "netsim/simulator.hpp"
#include "topology/builders.hpp"
#include "workload/ep.hpp"

namespace echelon::workload {
namespace {

TEST(Expert, StructureIsCoflowCompliantAllToAll) {
  auto fabric = topology::make_big_switch(4, 1e30);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  const auto placement = make_placement(sim, fabric.hosts);
  const auto job = generate_expert(
      {.model = make_mlp(3, 64, 4), .gpu = unit_gpu(), .iterations = 1},
      placement, reg, JobId{0});
  // 4 all-to-alls per layer (dispatch/combine x fwd/bwd).
  EXPECT_EQ(job.echelonflows.size(), 12u);
  for (const EchelonFlowId id : job.echelonflows) {
    const auto& a = reg.get(id).arrangement();
    EXPECT_TRUE(a.is_coflow_compliant());
    EXPECT_EQ(a.size(), 12);  // m(m-1) flows per all-to-all
  }
  EXPECT_TRUE(job.workflow.is_acyclic());
  EXPECT_EQ(job.paradigm, Paradigm::kExpert);
}

TEST(Expert, InfiniteBandwidthMakespanIsComputeBound) {
  auto fabric = topology::make_big_switch(4, 1e30);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  const auto placement = make_placement(sim, fabric.hosts);
  const ModelSpec model = make_mlp(3, 64, 4);
  const GpuSpec gpu = unit_gpu();
  const auto job = generate_expert(
      {.model = model, .gpu = gpu, .iterations = 1,
       .optimizer_fraction = 0.0},
      placement, reg, JobId{0});
  netsim::WorkflowEngine eng(&sim, &job.workflow);
  eng.launch(0.0);
  const SimTime t = sim.run();
  EXPECT_TRUE(eng.finished());
  // Per layer: expert fwd + 0.1 fwd (combine) + bwd + 0.1 bwd.
  const double expected = 1.1 * gpu.compute_time(model.total_fwd_flops()) +
                          1.1 * gpu.compute_time(model.total_bwd_flops());
  EXPECT_NEAR(t, expected, 1e-6);
}

TEST(Expert, CompletesOnFiniteFabricUnderEchelonScheduler) {
  auto fabric = topology::make_big_switch(4, 1e9);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  reg.attach(sim);
  ef::EchelonMaddScheduler sched(&reg);
  sim.set_scheduler(&sched);
  const auto placement = make_placement(sim, fabric.hosts);
  const auto job = generate_expert(
      {.model = make_mlp(3, 256, 8), .gpu = a100(), .iterations = 2},
      placement, reg, JobId{0});
  netsim::WorkflowEngine eng(&sim, &job.workflow);
  eng.launch(0.0);
  sim.run();
  EXPECT_TRUE(eng.finished());
  for (const EchelonFlowId id : job.echelonflows) {
    EXPECT_TRUE(reg.get(id).complete());
  }
  ASSERT_EQ(job.iteration_end.size(), 2u);
}

TEST(Expert, RoutedFractionScalesFlowSizes) {
  auto make = [](double fraction) {
    auto fabric = topology::make_big_switch(4, 1e9);
    netsim::Simulator sim(&fabric.topo);
    ef::Registry reg;
    const auto placement = make_placement(sim, fabric.hosts);
    const auto job = generate_expert({.model = make_mlp(2, 64, 4),
                                      .gpu = unit_gpu(),
                                      .iterations = 1,
                                      .routed_fraction = fraction},
                                     placement, reg, JobId{0});
    const netsim::Workflow& wf = job.workflow;
    for (netsim::WfNodeId id = 0; id < wf.size(); ++id) {
      if (wf.node(id).kind == netsim::WfKind::kFlow) return wf.flow(id).size;
    }
    return 0.0;
  };
  EXPECT_NEAR(make(0.5), 0.5 * make(1.0), 1e-9);
}

}  // namespace
}  // namespace echelon::workload
