// Unit tests for the workflow DAG and its execution engine.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "netsim/simulator.hpp"
#include "netsim/workflow.hpp"
#include "topology/builders.hpp"

namespace echelon::netsim {
namespace {

struct WfFixture : ::testing::Test {
  WfFixture() : fabric(topology::make_big_switch(4, 10.0)), sim(&fabric.topo) {
    w0 = sim.add_worker(fabric.hosts[0]);
    w1 = sim.add_worker(fabric.hosts[1]);
  }
  topology::BuiltFabric fabric;
  Simulator sim;
  WorkerId w0, w1;
};

TEST_F(WfFixture, LinearChainExecutesInOrder) {
  Workflow wf;
  const WfNodeId a = wf.add_compute(w0, 1.0, "a");
  const WfNodeId f = wf.add_flow(FlowSpec{
      .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 20.0});
  const WfNodeId b = wf.add_compute(w1, 0.5, "b");
  wf.add_dep(a, f);
  wf.add_dep(f, b);
  EXPECT_TRUE(wf.is_acyclic());
  EXPECT_EQ(wf.roots(), (std::vector<WfNodeId>{a}));

  WorkflowEngine eng(&sim, &wf);
  eng.launch(0.0);
  sim.run();
  EXPECT_TRUE(eng.finished());
  EXPECT_NEAR(eng.node_finish(a), 1.0, 1e-9);
  EXPECT_NEAR(eng.node_finish(f), 3.0, 1e-9);   // 20 bytes at 10 B/s
  EXPECT_NEAR(eng.node_finish(b), 3.5, 1e-9);
}

TEST_F(WfFixture, DiamondJoinsWaitForAllDeps) {
  Workflow wf;
  const WfNodeId a = wf.add_compute(w0, 1.0, "a");
  const WfNodeId b1 = wf.add_compute(w0, 2.0, "b1");
  const WfNodeId b2 = wf.add_compute(w1, 5.0, "b2");
  const WfNodeId join = wf.add_barrier("join");
  const WfNodeId c = wf.add_compute(w0, 1.0, "c");
  wf.add_dep(a, b1);
  wf.add_dep(a, b2);
  wf.add_deps({b1, b2}, join);
  wf.add_dep(join, c);

  WorkflowEngine eng(&sim, &wf);
  eng.launch(0.0);
  sim.run();
  EXPECT_NEAR(eng.node_finish(join), 6.0, 1e-9);  // limited by b2
  EXPECT_NEAR(eng.node_finish(c), 7.0, 1e-9);
}

TEST_F(WfFixture, BarrierChainsAreInstant) {
  Workflow wf;
  const WfNodeId b1 = wf.add_barrier("b1");
  const WfNodeId b2 = wf.add_barrier("b2");
  const WfNodeId b3 = wf.add_barrier("b3");
  wf.add_dep(b1, b2);
  wf.add_dep(b2, b3);
  WorkflowEngine eng(&sim, &wf);
  eng.launch(2.0);
  sim.run();
  EXPECT_TRUE(eng.finished());
  EXPECT_NEAR(eng.node_finish(b3), 2.0, 1e-9);
}

TEST_F(WfFixture, LaunchTimeDelaysRoots) {
  Workflow wf;
  const WfNodeId a = wf.add_compute(w0, 1.0, "a");
  WorkflowEngine eng(&sim, &wf);
  eng.launch(5.0);
  sim.run();
  EXPECT_NEAR(eng.node_start(a), 5.0, 1e-9);
  EXPECT_NEAR(eng.node_finish(a), 6.0, 1e-9);
}

TEST_F(WfFixture, FlowNodeBindsFlowId) {
  Workflow wf;
  const WfNodeId f = wf.add_flow(FlowSpec{
      .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 10.0});
  std::vector<std::pair<WfNodeId, FlowId>> bound;
  WorkflowEngine eng(&sim, &wf);
  eng.on_flow_submitted = [&bound](WfNodeId n, FlowId id) {
    bound.emplace_back(n, id);
  };
  eng.launch(0.0);
  sim.run();
  ASSERT_EQ(bound.size(), 1u);
  EXPECT_EQ(bound[0].first, f);
  EXPECT_EQ(eng.flow_of(f), bound[0].second);
  EXPECT_TRUE(sim.flow(bound[0].second).finished());
}

TEST_F(WfFixture, OnCompleteFiresOnce) {
  Workflow wf;
  const WfNodeId a = wf.add_compute(w0, 1.0, "a");
  const WfNodeId b = wf.add_compute(w0, 1.0, "b");
  wf.add_dep(a, b);
  int completions = 0;
  WorkflowEngine eng(&sim, &wf);
  eng.on_complete = [&completions](Simulator&) { ++completions; };
  eng.launch(0.0);
  sim.run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(eng.completed_nodes(), 2u);
}

TEST_F(WfFixture, OnCompleteFiresOnceThroughTerminalBarrierChain) {
  // A terminal barrier completes synchronously inside its parent's
  // node_done, so the parent frame also observes finished() == true after
  // its successor loop. The engine must still invoke on_complete exactly
  // once (regression: the service loop's running-job counter underflowed
  // when the callback double-fired).
  Workflow wf;
  const WfNodeId a = wf.add_compute(w0, 1.0, "a");
  const WfNodeId bar = wf.add_barrier("join");
  wf.add_dep(a, bar);
  int completions = 0;
  WorkflowEngine eng(&sim, &wf);
  eng.on_complete = [&completions](Simulator&) { ++completions; };
  eng.launch(0.0);
  sim.run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(eng.completed_nodes(), 2u);
}

TEST_F(WfFixture, TwoEnginesInterleave) {
  Workflow wf1, wf2;
  const WfNodeId t1 = wf1.add_compute(w0, 1.0, "j1");
  const WfNodeId t2 = wf2.add_compute(w0, 1.0, "j2");
  WorkflowEngine e1(&sim, &wf1);
  WorkflowEngine e2(&sim, &wf2);
  e1.launch(0.0);
  e2.launch(0.5);  // queued behind j1 on the same GPU
  sim.run();
  EXPECT_NEAR(e1.node_finish(t1), 1.0, 1e-9);
  EXPECT_NEAR(e2.node_finish(t2), 2.0, 1e-9);
}

TEST_F(WfFixture, StartReleasesRootsSynchronously) {
  // start() runs inside the caller's frame: a root barrier chain finishes
  // and a root compute task starts before it returns, with no event popped.
  Workflow wf;
  const WfNodeId b1 = wf.add_barrier("b1");
  const WfNodeId b2 = wf.add_barrier("b2");
  const WfNodeId a = wf.add_compute(w0, 1.0, "a");
  wf.add_dep(b1, b2);
  int completions = 0;
  WorkflowEngine eng(&sim, &wf);
  eng.on_complete = [&completions](Simulator&) { ++completions; };
  eng.start();
  EXPECT_EQ(eng.node_finish(b2), 0.0);
  EXPECT_EQ(eng.node_start(a), 0.0);
  EXPECT_EQ(eng.completed_nodes(), 2u);
  EXPECT_EQ(completions, 0);
  sim.run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(eng.node_finish(a), 1.0);
}

TEST(Workflow, LaunchMatchesScheduledStart) {
  // launch(t) is schedule_at(t, start): every node starts and finishes at
  // the same instants either way.
  const auto run = [](bool use_launch) {
    auto fabric = topology::make_big_switch(4, 10.0);
    Simulator sim(&fabric.topo);
    const WorkerId w0 = sim.add_worker(fabric.hosts[0]);
    const WorkerId w1 = sim.add_worker(fabric.hosts[1]);
    Workflow wf;
    const WfNodeId a = wf.add_compute(w0, 1.0, "a");
    const WfNodeId f1 = wf.add_flow(FlowSpec{
        .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 20.0});
    const WfNodeId f2 = wf.add_flow(FlowSpec{
        .src = fabric.hosts[2], .dst = fabric.hosts[1], .size = 5.0});
    const WfNodeId join = wf.add_barrier("join");
    const WfNodeId b = wf.add_compute(w1, 0.5, "b");
    wf.add_dep(a, f1);
    wf.add_deps({f1, f2}, join);
    wf.add_dep(join, b);
    WorkflowEngine eng(&sim, &wf);
    if (use_launch) {
      eng.launch(1.5);
    } else {
      sim.schedule_at(1.5, [&eng](Simulator&) { eng.start(); });
    }
    sim.run();
    EXPECT_TRUE(eng.finished());
    std::vector<SimTime> times;
    for (WfNodeId n = 0; n < wf.size(); ++n) {
      times.push_back(eng.node_start(n));
      times.push_back(eng.node_finish(n));
    }
    return times;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Workflow, EveryKindReadsItsLabelFromTheArena) {
  Workflow wf;
  const WfNodeId c = wf.add_compute(WorkerId{0}, 1.0, "it0.f.s1.mb0");
  const WfNodeId f = wf.add_flow(FlowSpec{.size = 1.0}, "g.s0");
  const WfNodeId b = wf.add_barrier("it0.end");
  const WfNodeId unlabeled = wf.add_flow(FlowSpec{.size = 2.0});
  EXPECT_EQ(wf.label(c), "it0.f.s1.mb0");
  EXPECT_EQ(wf.label(f), "g.s0");
  EXPECT_EQ(wf.label(b), "it0.end");
  EXPECT_TRUE(wf.label(unlabeled).empty());
  EXPECT_EQ(wf.node(c).kind, WfKind::kCompute);
  EXPECT_EQ(wf.node(f).kind, WfKind::kFlow);
  EXPECT_EQ(wf.node(b).kind, WfKind::kBarrier);
  EXPECT_EQ(wf.compute(c).duration, 1.0);
  EXPECT_EQ(wf.flow(unlabeled).size, 2.0);
  // The payload accessors throw for a node of another kind.
  EXPECT_THROW((void)wf.flow(c), std::invalid_argument);
  EXPECT_THROW((void)wf.compute(b), std::invalid_argument);
  EXPECT_THROW((void)wf.label(99), std::out_of_range);
}

// The layout the per-node cost rests on (DESIGN.md §5).
static_assert(std::is_trivially_copyable_v<FlowSpec>);
static_assert(sizeof(WfNode) <= 24);

TEST(Workflow, AddDepRejectsMissingNodesAndSelfEdges) {
  Workflow wf;
  const WfNodeId a = wf.add_barrier("a");
  const WfNodeId b = wf.add_barrier("b");
  try {
    wf.add_dep(a, 7);
    ADD_FAILURE() << "edge to a missing node accepted";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("node 7"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(wf.add_dep(9, b), std::out_of_range);
  // A self-edge would leave the node waiting on itself forever.
  EXPECT_THROW(wf.add_dep(b, b), std::invalid_argument);
  EXPECT_TRUE(wf.edges().empty());
  EXPECT_EQ(wf.node(b).dependency_count, 0);
  wf.add_dep(a, b);
  EXPECT_EQ(wf.edges().size(), 1u);
}

TEST(Workflow, SuccessorsReleaseInAddDepOrder) {
  // Zero-byte flows complete inside their release, so the order a listener
  // sees them finish is the order the engine walks the fan-out: add_dep
  // order, not node order.
  auto fabric = topology::make_big_switch(2, 10.0);
  Simulator sim(&fabric.topo);
  Workflow wf;
  const WfNodeId root = wf.add_barrier("root");
  std::vector<WfNodeId> fan;
  for (int i = 0; i < 5; ++i) {
    fan.push_back(wf.add_flow(
        FlowSpec{.src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 0.0},
        "z" + std::to_string(i)));
  }
  const std::vector<WfNodeId> order{fan[3], fan[0], fan[4], fan[1], fan[2]};
  for (const WfNodeId f : order) wf.add_dep(root, f);
  ASSERT_EQ(wf.edges().size(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(wf.edges()[i].pre, root);
    EXPECT_EQ(wf.edges()[i].succ, order[i]);
  }

  std::vector<FlowId> finished;
  sim.add_flow_listener(
      [&finished](Simulator&, const Flow& fl) { finished.push_back(fl.id); });
  WorkflowEngine eng(&sim, &wf);
  eng.start();
  EXPECT_TRUE(eng.finished());
  std::vector<WfNodeId> finished_nodes;
  for (const FlowId id : finished) {
    for (const WfNodeId f : fan) {
      if (eng.flow_of(f) == id) finished_nodes.push_back(f);
    }
  }
  EXPECT_EQ(finished_nodes, order);
}

TEST(Workflow, CycleDetection) {
  Workflow wf;
  const WfNodeId a = wf.add_barrier("a");
  const WfNodeId b = wf.add_barrier("b");
  const WfNodeId c = wf.add_barrier("c");
  wf.add_dep(a, b);
  wf.add_dep(b, c);
  EXPECT_TRUE(wf.is_acyclic());
  wf.add_dep(c, a);
  EXPECT_FALSE(wf.is_acyclic());
}

TEST(Workflow, JobStampsFlows) {
  Workflow wf;
  wf.set_job(JobId{7});
  const WfNodeId f = wf.add_flow(FlowSpec{.size = 1.0});
  EXPECT_EQ(wf.flow(f).job, JobId{7});
}

}  // namespace
}  // namespace echelon::netsim
