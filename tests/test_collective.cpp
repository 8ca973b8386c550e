// Unit tests for collective decomposition: flow counts, dependency
// structure, tagging, and end-to-end timing on a big-switch fabric.

#include <gtest/gtest.h>

#include "collective/p2p.hpp"
#include "collective/ps.hpp"
#include "collective/ring.hpp"
#include "netsim/simulator.hpp"
#include "topology/builders.hpp"

namespace echelon::collective {
namespace {

using netsim::Simulator;
using netsim::WfNodeId;
using netsim::Workflow;
using netsim::WorkflowEngine;

struct CollectiveFixture : ::testing::Test {
  static constexpr double kCap = 10.0;
  CollectiveFixture() : fabric(topology::make_big_switch(4, kCap)), sim(&fabric.topo) {}

  // Runs the workflow and returns the finish time of `done`.
  SimTime run_to(Workflow& wf, WfNodeId done) {
    WorkflowEngine eng(&sim, &wf);
    eng.launch(0.0);
    sim.run();
    EXPECT_TRUE(eng.finished());
    return eng.node_finish(done);
  }

  topology::BuiltFabric fabric;
  Simulator sim;
};

TEST_F(CollectiveFixture, RingReduceScatterFlowCount) {
  Workflow wf;
  FlowTag tag{.job = JobId{0}, .group = EchelonFlowId{0}};
  const auto h = ring_reduce_scatter(wf, fabric.hosts, 40.0, tag, "t");
  // (m-1) steps x m flows.
  EXPECT_EQ(h.flow_nodes.size(), 12u);
  EXPECT_EQ(tag.next_index, 12);
  // Every flow carries the group tag and a distinct index.
  for (std::size_t i = 0; i < h.flow_nodes.size(); ++i) {
    const auto& spec = wf.flow(h.flow_nodes[i]);
    EXPECT_EQ(spec.group, EchelonFlowId{0});
    EXPECT_EQ(spec.index_in_group, static_cast<int>(i));
    EXPECT_DOUBLE_EQ(spec.size, 10.0);  // G/m
  }
  EXPECT_TRUE(wf.is_acyclic());
}

TEST_F(CollectiveFixture, RingAllReduceTiming) {
  // Ring all-reduce of G bytes over m ports of capacity B takes
  // 2*(m-1)*G/(m*B): each step's m transfers run on disjoint port pairs.
  Workflow wf;
  FlowTag tag{.job = JobId{0}, .group = EchelonFlowId{0}};
  const double G = 40.0;
  const auto h = ring_all_reduce(wf, fabric.hosts, G, tag, "ar");
  EXPECT_EQ(h.flow_nodes.size(), 24u);  // 2 * (m-1) * m
  const SimTime t = run_to(wf, h.done);
  const double expected = 2.0 * 3.0 * (G / 4.0) / kCap;
  EXPECT_NEAR(t, expected, 1e-9);
}

TEST_F(CollectiveFixture, RingStepsSerializePerNodeDependency) {
  // The step-s+1 send of node i waits for the step-s send of node i-1.
  Workflow wf;
  FlowTag tag{.job = JobId{0}, .group = EchelonFlowId{0}};
  const auto h = ring_all_gather(wf, fabric.hosts, 40.0, tag, "ag");
  // Check one dependency explicitly: flow(step1, node0) has a predecessor
  // flow(step0, node3).
  const WfNodeId step1_n0 = h.flow_nodes[4 + 0];
  const WfNodeId step0_n3 = h.flow_nodes[3];
  bool found = false;
  for (const netsim::WfEdge& e : wf.edges()) {
    found |= e.pre == step0_n3 && e.succ == step1_n0;
  }
  EXPECT_TRUE(found);
}

TEST_F(CollectiveFixture, AllGatherAloneTakesHalfAllReduce) {
  Workflow wf;
  FlowTag tag{.job = JobId{0}, .group = EchelonFlowId{0}};
  const double G = 40.0;
  const auto h = ring_all_gather(wf, fabric.hosts, G, tag, "ag");
  const SimTime t = run_to(wf, h.done);
  EXPECT_NEAR(t, 3.0 * (G / 4.0) / kCap, 1e-9);
}

TEST_F(CollectiveFixture, PsPushBottlenecksAtIngress) {
  Workflow wf;
  FlowTag tag{.job = JobId{0}, .group = EchelonFlowId{0}};
  std::vector<NodeId> workers{fabric.hosts[0], fabric.hosts[1],
                              fabric.hosts[2]};
  const auto h = ps_push(wf, workers, fabric.hosts[3], 30.0, tag, "ps");
  EXPECT_EQ(h.flow_nodes.size(), 3u);
  const SimTime t = run_to(wf, h.done);
  // 3 x 30 bytes through one 10 B/s ingress port.
  EXPECT_NEAR(t, 9.0, 1e-9);
}

TEST_F(CollectiveFixture, PsPullBottlenecksAtEgress) {
  Workflow wf;
  FlowTag tag{.job = JobId{0}, .group = EchelonFlowId{0}};
  std::vector<NodeId> workers{fabric.hosts[0], fabric.hosts[1],
                              fabric.hosts[2]};
  const auto h = ps_pull(wf, workers, fabric.hosts[3], 20.0, tag, "ps");
  const SimTime t = run_to(wf, h.done);
  EXPECT_NEAR(t, 6.0, 1e-9);
  // Directions: PS is the source.
  for (const WfNodeId n : h.flow_nodes) {
    EXPECT_EQ(wf.flow(n).src, fabric.hosts[3]);
  }
}

TEST_F(CollectiveFixture, P2pSingleFlow) {
  Workflow wf;
  FlowTag tag{.job = JobId{3}, .group = EchelonFlowId{9}};
  const auto h = p2p(wf, fabric.hosts[0], fabric.hosts[1], 25.0, tag, "x");
  ASSERT_EQ(h.flow_nodes.size(), 1u);
  EXPECT_EQ(wf.flow(h.flow_nodes[0]).job, JobId{3});
  const SimTime t = run_to(wf, h.done);
  EXPECT_NEAR(t, 2.5, 1e-9);
}

TEST_F(CollectiveFixture, AllToAllCountsAndTiming) {
  Workflow wf;
  FlowTag tag{.job = JobId{0}, .group = EchelonFlowId{0}};
  const auto h = all_to_all(wf, fabric.hosts, 10.0, tag, "a2a");
  EXPECT_EQ(h.flow_nodes.size(), 12u);  // m*(m-1)
  const SimTime t = run_to(wf, h.done);
  // Each port sends and receives 3 x 10 bytes at 10 B/s.
  EXPECT_NEAR(t, 3.0, 1e-9);
}

TEST_F(CollectiveFixture, RouteHintBaseStampsDistinctHints) {
  Workflow wf;
  FlowTag tag{.job = JobId{0},
              .group = EchelonFlowId{0},
              .route_hint_base = 1000};
  const auto h = ps_push(wf, {fabric.hosts[0], fabric.hosts[1]},
                         fabric.hosts[2], 5.0, tag, "s");
  EXPECT_EQ(wf.flow(h.flow_nodes[0]).route_hint, 1000u);
  EXPECT_EQ(wf.flow(h.flow_nodes[1]).route_hint, 1001u);
}

TEST_F(CollectiveFixture, NoRouteHintBaseMeansZero) {
  Workflow wf;
  FlowTag tag{.job = JobId{0}, .group = EchelonFlowId{0}};
  const auto h = p2p(wf, fabric.hosts[0], fabric.hosts[1], 5.0, tag, "s");
  EXPECT_EQ(wf.flow(h.flow_nodes[0]).route_hint, 0u);
}

TEST_F(CollectiveFixture, ChainedCollectivesRespectBarriers) {
  // reduce-scatter completion gates the all-gather start inside all-reduce.
  Workflow wf;
  FlowTag tag{.job = JobId{0}, .group = EchelonFlowId{0}};
  const auto h = ring_all_reduce(wf, fabric.hosts, 40.0, tag, "ar");
  WorkflowEngine eng(&sim, &wf);
  eng.launch(0.0);
  sim.run();
  // First all-gather flow (index 12) starts exactly when the last
  // reduce-scatter flow finishes.
  SimTime last_rs = 0.0;
  for (std::size_t i = 0; i < 12; ++i) {
    last_rs = std::max(last_rs, eng.node_finish(h.flow_nodes[i]));
  }
  EXPECT_NEAR(eng.node_start(h.flow_nodes[12]), last_rs, 1e-9);
}

}  // namespace
}  // namespace echelon::collective
