// Integration test: exact reproduction of the paper's Fig. 2 motivating
// example.
//
// Setup (from the figure caption and §1): pipeline-parallel forward phase,
// two consecutive workers, three micro-batches. Each worker spends 1 s of
// computation per micro-batch; each micro-batch's activations are 2*B bytes,
// sent over a link of bandwidth B.
//
// Expected computation finish times (see EXPERIMENTS.md for the derivation,
// consistent with the paper's statement that Coflow scheduling "is worse
// than naive bandwidth fair sharing"):
//   fair sharing      -> 8.5
//   Coflow (MADD)     -> 10
//   EchelonFlow       -> 8   (optimal)
// and under EchelonFlow scheduling the three flows finish staggered at
// t = 3, 5, 7 -- matching the computation pattern.

#include <gtest/gtest.h>

#include "echelon/coflow_madd.hpp"
#include "echelon/echelon_madd.hpp"
#include "echelon/registry.hpp"
#include "netsim/simulator.hpp"
#include "netsim/workflow.hpp"
#include "topology/builders.hpp"

namespace echelon {
namespace {

constexpr double kBandwidth = 1.0;      // B (bytes/s)
constexpr Bytes kActivation = 2.0;      // 2*B per micro-batch
constexpr Duration kCompute = 1.0;      // per micro-batch, both workers
constexpr int kMicroBatches = 3;

struct Fig2Run {
  SimTime comp_finish = 0.0;
  std::vector<SimTime> flow_finish;     // activation flow finish times
};

// Builds the forward-phase workflow of Fig. 1b / Fig. 2 and runs it under
// the given scheduler. `registry` must outlive the run.
Fig2Run run_fig2(netsim::NetworkScheduler* scheduler, ef::Registry& registry) {
  auto fabric = topology::make_big_switch(2, kBandwidth);
  netsim::Simulator sim(&fabric.topo);
  registry.attach(sim);
  if (scheduler != nullptr) sim.set_scheduler(scheduler);

  const WorkerId w0 = sim.add_worker(fabric.hosts[0]);
  const WorkerId w1 = sim.add_worker(fabric.hosts[1]);

  const EchelonFlowId ef = registry.create(
      JobId{0}, ef::Arrangement::pipeline(kMicroBatches, kCompute), "fig2");

  netsim::Workflow wf;
  std::vector<netsim::WfNodeId> producer(kMicroBatches);
  std::vector<netsim::WfNodeId> flows(kMicroBatches);
  std::vector<netsim::WfNodeId> consumer(kMicroBatches);
  for (int i = 0; i < kMicroBatches; ++i) {
    const auto u = static_cast<std::size_t>(i);
    producer[u] =
        wf.add_compute(w0, kCompute, "f.s0.mb" + std::to_string(i));
    flows[u] = wf.add_flow(netsim::FlowSpec{.src = fabric.hosts[0],
                                            .dst = fabric.hosts[1],
                                            .size = kActivation,
                                            .job = JobId{0},
                                            .group = ef,
                                            .index_in_group = i},
                           "act.mb" + std::to_string(i));
    consumer[u] =
        wf.add_compute(w1, kCompute, "f.s1.mb" + std::to_string(i));
    wf.add_dep(producer[u], flows[u]);
    wf.add_dep(flows[u], consumer[u]);
    if (i > 0) {
      wf.add_dep(producer[u - 1], producer[u]);
      wf.add_dep(consumer[u - 1], consumer[u]);
    }
  }
  EXPECT_TRUE(wf.is_acyclic());

  netsim::WorkflowEngine engine(&sim, &wf);
  engine.launch(0.0);
  sim.run();
  EXPECT_TRUE(engine.finished());

  Fig2Run out;
  out.comp_finish = engine.node_finish(consumer.back());
  for (int i = 0; i < kMicroBatches; ++i) {
    out.flow_finish.push_back(
        engine.node_finish(flows[static_cast<std::size_t>(i)]));
  }
  return out;
}

TEST(Fig2, FairSharingFinishesAt8_5) {
  ef::Registry registry;
  const Fig2Run run = run_fig2(nullptr, registry);  // default = fair sharing
  EXPECT_NEAR(run.comp_finish, 8.5, 1e-9);
  // Flow finish times under fair sharing: 4.5, 6.5, 7.
  ASSERT_EQ(run.flow_finish.size(), 3u);
  EXPECT_NEAR(run.flow_finish[0], 4.5, 1e-9);
  EXPECT_NEAR(run.flow_finish[1], 6.5, 1e-9);
  EXPECT_NEAR(run.flow_finish[2], 7.0, 1e-9);
}

TEST(Fig2, CoflowMaddFinishesAt10) {
  ef::Registry registry;
  ef::CoflowMaddScheduler sched;
  const Fig2Run run = run_fig2(&sched, registry);
  EXPECT_NEAR(run.comp_finish, 10.0, 1e-9);
  // MADD makes all flows of the "coflow" finish simultaneously at t = 7.
  for (const SimTime t : run.flow_finish) EXPECT_NEAR(t, 7.0, 1e-9);
}

TEST(Fig2, EchelonFlowFinishesAt8) {
  ef::Registry registry;
  ef::EchelonMaddScheduler sched(&registry);
  const Fig2Run run = run_fig2(&sched, registry);
  EXPECT_NEAR(run.comp_finish, 8.0, 1e-9);
  // Staggered finishes matching the computation pattern: 3, 5, 7 (Fig. 2c).
  ASSERT_EQ(run.flow_finish.size(), 3u);
  EXPECT_NEAR(run.flow_finish[0], 3.0, 1e-9);
  EXPECT_NEAR(run.flow_finish[1], 5.0, 1e-9);
  EXPECT_NEAR(run.flow_finish[2], 7.0, 1e-9);
}

TEST(Fig2, EchelonFlowTardinessIsMinimal) {
  // Under EchelonFlow scheduling the measured EchelonFlow tardiness (Eq. 2)
  // equals the analytic optimum: flows finish at 3/5/7 against ideal finish
  // times 1/2/3 -> max tardiness 4.
  ef::Registry registry;
  ef::EchelonMaddScheduler sched(&registry);
  (void)run_fig2(&sched, registry);
  ASSERT_EQ(registry.size(), 1u);
  const ef::EchelonFlow& ef = registry.get(EchelonFlowId{0});
  ASSERT_TRUE(ef.complete());
  EXPECT_NEAR(ef.tardiness(), 4.0, 1e-9);
  // Fair sharing and Coflow both do worse on the same metric.
  ef::Registry fair_reg;
  (void)run_fig2(nullptr, fair_reg);
  EXPECT_GT(fair_reg.get(EchelonFlowId{0}).tardiness(), 4.0);
  ef::Registry co_reg;
  ef::CoflowMaddScheduler co;
  (void)run_fig2(&co, co_reg);
  EXPECT_GT(co_reg.get(EchelonFlowId{0}).tardiness(), 4.0);
}

}  // namespace
}  // namespace echelon
