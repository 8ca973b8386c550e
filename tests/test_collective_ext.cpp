// Tests for the extended collective algorithms: recursive halving-doubling
// and binomial-tree, plus the backend facade's algorithm selection.

#include <gtest/gtest.h>

#include "collective/hd.hpp"
#include "collective/tree.hpp"
#include "netsim/simulator.hpp"
#include "runtime/backend.hpp"
#include "topology/builders.hpp"

namespace echelon::collective {
namespace {

using netsim::Simulator;
using netsim::Workflow;
using netsim::WorkflowEngine;

struct HdFixture : ::testing::Test {
  static constexpr double kCap = 10.0;
  HdFixture() : fabric(topology::make_big_switch(4, kCap)), sim(&fabric.topo) {}

  SimTime run_to(Workflow& wf, netsim::WfNodeId done) {
    WorkflowEngine eng(&sim, &wf);
    eng.launch(0.0);
    sim.run();
    EXPECT_TRUE(eng.finished());
    return eng.node_finish(done);
  }

  topology::BuiltFabric fabric;
  Simulator sim;
};

TEST(HdHelpers, PowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(8));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(6));
}

TEST_F(HdFixture, ReduceScatterStructure) {
  Workflow wf;
  FlowTag tag{.job = JobId{0}, .group = EchelonFlowId{0}};
  const auto h = hd_reduce_scatter(wf, fabric.hosts, 40.0, tag, "t");
  // log2(4) = 2 rounds x 4 ranks = 8 flows.
  EXPECT_EQ(h.flow_nodes.size(), 8u);
  // Round 0: half the data to the partner at distance 2.
  EXPECT_DOUBLE_EQ(wf.flow(h.flow_nodes[0]).size, 20.0);
  EXPECT_EQ(wf.flow(h.flow_nodes[0]).dst, fabric.hosts[2]);
  // Round 1: quarter of the data at distance 1.
  EXPECT_DOUBLE_EQ(wf.flow(h.flow_nodes[4]).size, 10.0);
  EXPECT_EQ(wf.flow(h.flow_nodes[4]).dst, fabric.hosts[1]);
  EXPECT_TRUE(wf.is_acyclic());
}

TEST_F(HdFixture, AllReduceMovesSameBytesAsRing) {
  // Both algorithms are bandwidth-optimal: (m-1)/m * G per rank per phase,
  // so on a latency-free big switch they take the same time.
  Workflow wf;
  FlowTag tag{.job = JobId{0}, .group = EchelonFlowId{0}};
  const double G = 40.0;
  const auto h = hd_all_reduce(wf, fabric.hosts, G, tag, "ar");
  EXPECT_EQ(h.flow_nodes.size(), 16u);  // 2 phases x 2 rounds x 4 ranks
  const SimTime t = run_to(wf, h.done);
  EXPECT_NEAR(t, 2.0 * 3.0 * (G / 4.0) / kCap, 1e-9);  // == ring time
}

TEST_F(HdFixture, RoundsSerializeOnReceivedData) {
  Workflow wf;
  FlowTag tag{.job = JobId{0}, .group = EchelonFlowId{0}};
  const auto h = hd_all_gather(wf, fabric.hosts, 40.0, tag, "ag");
  // Round-1 send of rank 0 depends on round-0 send of its round-0 partner
  // (rank 1 at distance 1... for all-gather round 0 distance is 1).
  const netsim::WfNodeId r1_n0 = h.flow_nodes[4];
  const netsim::WfNodeId r0_n1 = h.flow_nodes[1];
  bool found = false;
  for (const netsim::WfEdge& e : wf.edges()) {
    found |= e.pre == r0_n1 && e.succ == r1_n0;
  }
  EXPECT_TRUE(found);
}

TEST_F(HdFixture, TreeBroadcastStructureAndTiming) {
  Workflow wf;
  FlowTag tag{.job = JobId{0}, .group = EchelonFlowId{0}};
  const auto h = tree_broadcast(wf, fabric.hosts, 40.0, tag, "m");
  EXPECT_EQ(h.flow_nodes.size(), 3u);  // m-1 edges
  const SimTime t = run_to(wf, h.done);
  // Ranks 1 and 2 receive from the root concurrently (sharing its egress
  // port: 5 B/s each -> done at 8); rank 3 receives from rank 2 afterwards
  // at full rate (4 s) -> 12.
  EXPECT_NEAR(t, 12.0, 1e-9);
}

TEST_F(HdFixture, TreeReduceMirrorsBroadcast) {
  Workflow wf;
  FlowTag tag{.job = JobId{0}, .group = EchelonFlowId{0}};
  const auto h = tree_reduce(wf, fabric.hosts, 40.0, tag, "m");
  EXPECT_EQ(h.flow_nodes.size(), 3u);
  // Ranks 1->0 and 3->2 run concurrently on disjoint ports (done at 4);
  // rank 2 forwards only after receiving rank 3's contribution: 4 + 4 = 8.
  const SimTime t = run_to(wf, h.done);
  EXPECT_NEAR(t, 8.0, 1e-9);
  // All payloads end at the root.
  int to_root = 0;
  for (auto n : h.flow_nodes) {
    to_root += wf.flow(n).dst == fabric.hosts[0];
  }
  EXPECT_EQ(to_root, 2);  // ranks 1 and 2 send to root; 3 sends to 2
}

TEST(BackendExt, GlooSelectsHalvingDoublingOnPowersOfTwo) {
  runtime::Backend gloo(runtime::BackendKind::kGloo);
  EXPECT_TRUE(gloo.uses_hd(4));
  EXPECT_FALSE(gloo.uses_hd(6));
  EXPECT_EQ(gloo.all_reduce_cardinality(4), 16);  // 2 * 4 * log2(4)
  EXPECT_EQ(gloo.all_reduce_cardinality(6), 60);  // ring fallback 2*6*5

  auto fabric = topology::make_big_switch(4, 10.0);
  netsim::Workflow wf;
  FlowTag tag{.job = JobId{0}, .group = EchelonFlowId{0}};
  const auto h = gloo.all_reduce(wf, fabric.hosts, 40.0, tag, "ar");
  EXPECT_EQ(static_cast<int>(h.flow_nodes.size()),
            gloo.all_reduce_cardinality(4));
}

}  // namespace
}  // namespace echelon::collective
