// Tests for the §5 system sketch: agent + coordinator request path,
// interval-mode scheduling, iterative decision reuse, and priority-queue
// enforcement.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "netsim/simulator.hpp"
#include "runtime/agent.hpp"
#include "runtime/backend.hpp"
#include "runtime/coordinator.hpp"
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

EchelonFlowRequest pipeline_request(const topology::BuiltFabric& f,
                                    int flows, Duration T, Bytes size,
                                    std::uint64_t sig_base = 0) {
  EchelonFlowRequest req;
  req.label = "pipe";
  req.arrangement = ef::Arrangement::pipeline(flows, T);
  for (int i = 0; i < flows; ++i) {
    req.flows.push_back(FlowInfo{size, f.hosts[0], f.hosts[1]});
  }
  req.signature_base = sig_base;
  return req;
}

TEST_F(RuntimeFixture, AgentRegistersAndPostsFlows) {
  Coordinator coord(&sim);
  sim.set_scheduler(&coord);
  EchelonFlowAgent agent(&sim, &coord, JobId{0}, "pytorch");

  const EchelonFlowId ef =
      agent.register_echelonflow(pipeline_request(fabric, 2, 1.0, 20.0));
  EXPECT_EQ(coord.registry().size(), 1u);

  std::vector<SimTime> done;
  agent.post_flow(ef, 0, [&done](Simulator& s, const netsim::Flow&) {
    done.push_back(s.now());
  });
  sim.schedule_at(1.0, [&agent, ef, &done](Simulator&) {
    agent.post_flow(ef, 1, [&done](Simulator& s, const netsim::Flow&) {
      done.push_back(s.now());
    });
  });
  sim.run();
  EXPECT_EQ(agent.posted_flows(), 2u);
  ASSERT_EQ(done.size(), 2u);
  // EDF order on one port: flow 0 at full rate [0,2], flow 1 [2,4].
  EXPECT_NEAR(done[0], 2.0, 1e-9);
  EXPECT_NEAR(done[1], 4.0, 1e-9);
  // Tardiness measured by the coordinator's registry.
  EXPECT_TRUE(coord.registry().get(ef).complete());
  EXPECT_NEAR(coord.registry().get(ef).tardiness(), 3.0, 1e-9);
}

TEST_F(RuntimeFixture, PerEventModeRunsHeuristicPerChange) {
  Coordinator coord(&sim);
  sim.set_scheduler(&coord);
  EchelonFlowAgent agent(&sim, &coord, JobId{0});
  const EchelonFlowId ef =
      agent.register_echelonflow(pipeline_request(fabric, 3, 0.5, 10.0));
  for (int i = 0; i < 3; ++i) agent.post_flow(ef, i);
  sim.run();
  // Arrivals (batched) + three departures: at least 4 heuristic runs.
  EXPECT_GE(coord.heuristic_runs(), 4u);
  EXPECT_EQ(coord.reuse_hits(), 0u);
}

TEST_F(RuntimeFixture, IntervalModeDefersMidIntervalArrivals) {
  Coordinator coord(&sim, {.mode = SchedulingMode::kInterval,
                           .interval = 2.0});
  sim.set_scheduler(&coord);
  EchelonFlowAgent agent(&sim, &coord, JobId{0});
  const EchelonFlowId ef =
      agent.register_echelonflow(pipeline_request(fabric, 2, 0.5, 10.0));
  agent.post_flow(ef, 0);  // t=0: scheduled immediately (first recompute)
  sim.schedule_at(0.5, [&agent, ef](Simulator&) {
    agent.post_flow(ef, 1);  // mid-interval: parked until t=2
  });
  sim.run();
  EXPECT_GE(coord.deferred_flows(), 1u);
  // Flow 0: [0,1] at full rate. Flow 1 parked [0.5,2], then served: done 3.
  EXPECT_NEAR(sim.flow(FlowId{1}).finish_time, 3.0, 1e-9);
}

// An interval boundary with no arrival, departure, topology change or
// registry revision since the last heuristic run keeps the standing
// allocation; a topology change, or a late EchelonFlow registration on the
// coordinator's registry, makes the next boundary re-run.
TEST_F(RuntimeFixture, IntervalBoundaryRerunsOnlyAfterChurn) {
  Coordinator coord(&sim, {.mode = SchedulingMode::kInterval,
                           .interval = 1.0});
  sim.set_scheduler(&coord);
  const FlowId f = sim.submit_flow(FlowSpec{.src = fabric.hosts[0],
                                            .dst = fabric.hosts[1],
                                            .size = 100.0,
                                            .job = JobId{0}});
  sim.run(2.5);  // the t=0 run, then quiet boundaries at t=1 and t=2
  EXPECT_EQ(coord.heuristic_runs(), 1u);

  sim.notify_topology_change();
  sim.run(2.9);  // the mid-interval pass sees the churn but defers to t=3
  EXPECT_EQ(coord.heuristic_runs(), 1u);
  sim.run(3.5);
  EXPECT_EQ(coord.heuristic_runs(), 2u);
  sim.run(4.5);  // quiet again
  EXPECT_EQ(coord.heuristic_runs(), 2u);

  (void)coord.registry().create(JobId{1}, ef::Arrangement::coflow(1));
  sim.run(5.5);  // no pass until the t=5 boundary, which re-runs
  EXPECT_EQ(coord.heuristic_runs(), 3u);
  sim.run(6.5);
  EXPECT_EQ(coord.heuristic_runs(), 3u);
  sim.run();
  EXPECT_NEAR(sim.flow(f).finish_time, 10.0, 1e-9);
}

TEST_F(RuntimeFixture, IterativeReuseGrantsCachedRates) {
  Coordinator coord(&sim, {.mode = SchedulingMode::kInterval,
                           .interval = 5.0,
                           .iterative_reuse = true});
  sim.set_scheduler(&coord);
  EchelonFlowAgent agent(&sim, &coord, JobId{0});
  // Iteration 1 (t=0): same signature base as iteration 2.
  const EchelonFlowId ef1 = agent.register_echelonflow(
      pipeline_request(fabric, 1, 0.5, 10.0, /*sig=*/100));
  agent.post_flow(ef1, 0);  // scheduled by the t=0 recompute, cached
  // Iteration 2 arrives mid-interval with the same structural signature.
  sim.schedule_at(2.0, [&](Simulator&) {
    const EchelonFlowId ef2 = agent.register_echelonflow(
        pipeline_request(fabric, 1, 0.5, 10.0, /*sig=*/100));
    agent.post_flow(ef2, 0);
  });
  sim.run();
  EXPECT_GE(coord.reuse_hits(), 1u);
  EXPECT_EQ(coord.deferred_flows(), 0u);
  // The cached decision was full rate -> finishes at 3.0 without waiting
  // for the t=5 recompute.
  EXPECT_NEAR(sim.flow(FlowId{1}).finish_time, 3.0, 1e-9);
}

TEST_F(RuntimeFixture, NameCarriesTheOperatingPoint) {
  EXPECT_EQ(Coordinator(&sim).name(), "coordinator[echelonflow-madd]");
  EXPECT_EQ(Coordinator(&sim, {.mode = SchedulingMode::kInterval}).name(),
            "coordinator[echelonflow-madd,interval]");
  EXPECT_EQ(Coordinator(&sim, {.mode = SchedulingMode::kInterval,
                               .iterative_reuse = true})
                .name(),
            "coordinator[echelonflow-madd,interval+reuse]");
}

// A fault-driven topology change drops the signature cache: a later arrival
// with a cached signature waits for the next boundary instead of replaying a
// rate granted against the old capacities.
TEST_F(RuntimeFixture, TopologyChangeDropsReuseCache) {
  Coordinator coord(&sim, {.mode = SchedulingMode::kInterval,
                           .interval = 5.0,
                           .iterative_reuse = true});
  sim.set_scheduler(&coord);
  EchelonFlowAgent agent(&sim, &coord, JobId{0});
  const EchelonFlowId ef1 = agent.register_echelonflow(
      pipeline_request(fabric, 1, 0.5, 10.0, /*sig=*/100));
  agent.post_flow(ef1, 0);  // cached by the t=0 recompute
  sim.schedule_at(0.5, [](Simulator& s) { s.notify_topology_change(); });
  sim.schedule_at(2.0, [&](Simulator&) {
    const EchelonFlowId ef2 = agent.register_echelonflow(
        pipeline_request(fabric, 1, 0.5, 10.0, /*sig=*/100));
    agent.post_flow(ef2, 0);
  });
  sim.run();
  EXPECT_EQ(coord.reuse_hits(), 0u);
  EXPECT_EQ(coord.deferred_flows(), 1u);
  // Parked from t=2 to the t=5 boundary, then one second at full rate.
  EXPECT_NEAR(sim.flow(FlowId{1}).finish_time, 6.0, 1e-9);
}

// The framework API checks its arguments in every build: an unregistered
// EchelonFlow or an index outside its flows throws naming it, and a request
// whose flow list does not match its arrangement registers nothing.
TEST_F(RuntimeFixture, AgentRejectsUnregisteredEchelonFlow) {
  Coordinator coord(&sim);
  EchelonFlowAgent agent(&sim, &coord, JobId{0});
  try {
    (void)agent.post_flow(EchelonFlowId{7}, 0);
    ADD_FAILURE() << "posted a flow of an unregistered EchelonFlow";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("EchelonFlow 7"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(agent.posted_flows(), 0u);
  EXPECT_EQ(sim.flow_count(), 0u);
}

TEST_F(RuntimeFixture, AgentRejectsIndexOutsideFlows) {
  Coordinator coord(&sim);
  EchelonFlowAgent agent(&sim, &coord, JobId{0});
  const EchelonFlowId ef =
      agent.register_echelonflow(pipeline_request(fabric, 2, 1.0, 20.0));
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
  EXPECT_EQ(sim.flow_count(), 0u);
}

TEST_F(RuntimeFixture, CoordinatorRejectsFlowCountMismatch) {
  Coordinator coord(&sim);
  EchelonFlowRequest req = pipeline_request(fabric, 3, 1.0, 20.0);
  req.flows.pop_back();
  try {
    (void)coord.accept_request(req);
    ADD_FAILURE() << "registered 2 flows for a 3-flow arrangement";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "has 2 flows for an arrangement of 3"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(coord.registry().size(), 0u);
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
