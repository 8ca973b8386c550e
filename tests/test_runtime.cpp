// Tests for the §5 system sketch: the agent request path into a
// cluster::Stack, priority-queue enforcement and the backend facade.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/stack.hpp"
#include "echelon/echelon_madd.hpp"
#include "echelon/registry.hpp"
#include "netsim/simulator.hpp"
#include "runtime/agent.hpp"
#include "runtime/backend.hpp"
#include "runtime/priority_queue.hpp"
#include "topology/builders.hpp"

namespace echelon::runtime {
namespace {

using netsim::FlowSpec;
using netsim::Simulator;

struct RuntimeFixture : ::testing::Test {
  RuntimeFixture()
      : fabric(topology::make_big_switch(4, 10.0)), sim(&fabric.topo) {}
  topology::BuiltFabric fabric;
  Simulator sim;
};

// The paper's coordinator: a Stack running EchelonFlow-MADD over four hosts
// behind a big switch of 10 B/s ports.
struct AgentFixture : ::testing::Test {
  cluster::Stack stack{cluster::SchedulerKind::kEchelonMadd,
                       cluster::FabricKind::kBigSwitch, 4, 10.0, 1.0};
  std::vector<NodeId> hosts = stack.sim().topology().hosts();
};

EchelonFlowRequest pipeline_request(const std::vector<NodeId>& hosts,
                                    int flows, Duration T, Bytes size) {
  EchelonFlowRequest req;
  req.label = "pipe";
  req.arrangement = ef::Arrangement::pipeline(flows, T);
  for (int i = 0; i < flows; ++i) {
    req.flows.push_back(FlowInfo{size, hosts[0], hosts[1]});
  }
  return req;
}

TEST_F(AgentFixture, AgentRegistersAndPostsFlows) {
  EchelonFlowAgent agent(&stack, JobId{0}, "pytorch");
  EXPECT_EQ(agent.job(), JobId{0});
  EXPECT_EQ(agent.framework_name(), "pytorch");

  const EchelonFlowId ef =
      agent.register_echelonflow(pipeline_request(hosts, 2, 1.0, 20.0));
  EXPECT_EQ(stack.registry().size(), 1u);

  std::vector<SimTime> done;
  agent.post_flow(ef, 0, [&done](Simulator& s, const netsim::Flow&) {
    done.push_back(s.now());
  });
  stack.sim().schedule_at(1.0, [&agent, ef, &done](Simulator&) {
    agent.post_flow(ef, 1, [&done](Simulator& s, const netsim::Flow&) {
      done.push_back(s.now());
    });
  });
  stack.sim().run();
  EXPECT_EQ(agent.posted_flows(), 2u);
  ASSERT_EQ(done.size(), 2u);
  // EDF order on one port: flow 0 at full rate [0,2], flow 1 [2,4].
  EXPECT_NEAR(done[0], 2.0, 1e-9);
  EXPECT_NEAR(done[1], 4.0, 1e-9);
  // Tardiness measured by the Stack's registry.
  EXPECT_TRUE(stack.registry().get(ef).complete());
  EXPECT_NEAR(stack.registry().get(ef).tardiness(), 3.0, 1e-9);
}

// The framework API checks its arguments in every build: an unregistered
// EchelonFlow or an index outside its flows throws naming it, and a request
// whose flow list does not match its arrangement registers nothing.
TEST_F(AgentFixture, AgentRejectsUnregisteredEchelonFlow) {
  EchelonFlowAgent agent(&stack, JobId{0});
  try {
    (void)agent.post_flow(EchelonFlowId{7}, 0);
    ADD_FAILURE() << "posted a flow of an unregistered EchelonFlow";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("EchelonFlow 7"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(agent.posted_flows(), 0u);
  EXPECT_EQ(stack.sim().flow_count(), 0u);
}

TEST_F(AgentFixture, AgentRejectsIndexOutsideFlows) {
  EchelonFlowAgent agent(&stack, JobId{0});
  const EchelonFlowId ef =
      agent.register_echelonflow(pipeline_request(hosts, 2, 1.0, 20.0));
  for (const int index : {2, -1}) {
    try {
      (void)agent.post_flow(ef, index);
      ADD_FAILURE() << "posted index " << index;
    } catch (const std::out_of_range& e) {
      EXPECT_NE(std::string(e.what()).find("index " + std::to_string(index)),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(agent.posted_flows(), 0u);
  EXPECT_EQ(stack.sim().flow_count(), 0u);
}

TEST_F(AgentFixture, AgentRejectsFlowCountMismatch) {
  EchelonFlowAgent agent(&stack, JobId{0});
  EchelonFlowRequest req = pipeline_request(hosts, 3, 1.0, 20.0);
  req.flows.pop_back();
  try {
    (void)agent.register_echelonflow(req);
    ADD_FAILURE() << "registered 2 flows for a 3-flow arrangement";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "has 2 flows for an arrangement of 3"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(stack.registry().size(), 0u);
}

TEST_F(RuntimeFixture, PriorityQueueEnforcerQuantizesToWeights) {
  netsim::FairSharingScheduler fair;
  PriorityQueueEnforcer pq(&fair, {.num_queues = 4});
  sim.set_scheduler(&pq);
  EXPECT_EQ(pq.name(), "fair+pq4");
  const FlowId a = sim.submit_flow(FlowSpec{
      .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 10.0});
  sim.run();
  // A single uncapped flow lands in queue 0 and still gets the full port.
  EXPECT_NEAR(sim.flow(a).finish_time, 1.0, 1e-9);
}

// Fewer than one queue has no lowest queue: the share floor 2^-(K-1) would
// exceed the clamp's upper bound of 1.
TEST_F(RuntimeFixture, PriorityQueueEnforcerRejectsFewerThanOneQueue) {
  netsim::FairSharingScheduler fair;
  for (const int k : {0, -1}) {
    try {
      PriorityQueueEnforcer pq(&fair, {.num_queues = k});
      ADD_FAILURE() << "built an enforcer with " << k << " queues";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("got " + std::to_string(k)),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW(PriorityQueueEnforcer(&fair, {.num_queues = 1}));
}

TEST_F(RuntimeFixture, PriorityQueueApproximatesEchelonDecisions) {
  // Under K-queue enforcement the echelon policy's strict ordering becomes
  // weighted sharing: both flows make progress, earlier deadline faster.
  ef::Registry reg;
  reg.attach(sim);
  ef::EchelonMaddScheduler policy(&reg);
  PriorityQueueEnforcer pq(&policy, {.num_queues = 8});
  EXPECT_NE(pq.name().find("+pq8"), std::string::npos);
  sim.set_scheduler(&pq);
  const EchelonFlowId ef =
      reg.create(JobId{0}, ef::Arrangement::pipeline(2, 1.0));
  const FlowId a = sim.submit_flow(FlowSpec{.src = fabric.hosts[0],
                                            .dst = fabric.hosts[1],
                                            .size = 20.0,
                                            .group = ef,
                                            .index_in_group = 0});
  const FlowId b = sim.submit_flow(FlowSpec{.src = fabric.hosts[0],
                                            .dst = fabric.hosts[1],
                                            .size = 20.0,
                                            .group = ef,
                                            .index_in_group = 1});
  sim.run();
  // Exact rate control would give 2.0 / 4.0; the K-queue approximation puts
  // the zero-rate flow in the lowest queue (weight 2^-7), so flow a is
  // slightly slower and flow b slightly faster.
  EXPECT_LT(sim.flow(a).finish_time, sim.flow(b).finish_time);
  EXPECT_GT(sim.flow(a).finish_time, 2.0 - 1e-9);
  EXPECT_LE(sim.flow(b).finish_time, 4.0 + 0.2);
}

TEST(Backend, CardinalitiesMatchDecomposition) {
  Backend nccl(BackendKind::kNccl);
  Backend mpi(BackendKind::kMpi);
  EXPECT_EQ(nccl.all_reduce_cardinality(4), 24);
  EXPECT_EQ(mpi.all_reduce_cardinality(4), 24);  // scatter + gather rounds
  EXPECT_STREQ(to_string(BackendKind::kGloo), "gloo");
}

TEST(Backend, DecompositionsProduceDeclaredFlowCounts) {
  auto fabric = topology::make_big_switch(4, 10.0);
  netsim::Workflow wf;
  collective::FlowTag tag{.job = JobId{0}, .group = EchelonFlowId{0}};
  Backend nccl(BackendKind::kNccl);
  const auto h =
      nccl.all_reduce(wf, fabric.hosts, 40.0, tag, "ar");
  EXPECT_EQ(static_cast<int>(h.flow_nodes.size()),
            nccl.all_reduce_cardinality(4));

  netsim::Workflow wf2;
  collective::FlowTag tag2{.job = JobId{0}, .group = EchelonFlowId{0}};
  Backend mpi(BackendKind::kMpi);
  const auto h2 = mpi.all_reduce(wf2, fabric.hosts, 40.0, tag2, "ar");
  EXPECT_EQ(static_cast<int>(h2.flow_nodes.size()),
            mpi.all_reduce_cardinality(4));
}

}  // namespace
}  // namespace echelon::runtime
