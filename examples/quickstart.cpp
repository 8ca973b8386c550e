// Quickstart: the EchelonFlow API in ~80 lines.
//
// Recreates the paper's Fig. 2 motivating example through the public runtime
// API (agent + coordinator), the way a training framework would use it:
//   1. build a cluster stack whose scheduler is EchelonFlow-MADD,
//   2. register an EchelonFlow (arrangement + per-flow info) via the agent,
//   3. post flows as the "computation" produces data,
//   4. read back finish times and tardiness.
//
// Run: ./quickstart

#include <iostream>
#include <vector>

#include "cluster/stack.hpp"
#include "common/table.hpp"
#include "runtime/agent.hpp"

int main() {
  using namespace echelon;

  // The coordinator: EchelonFlow-MADD over two hosts behind a non-blocking
  // switch, with 1 byte/s ports so the numbers match the paper's abstract
  // units (B = 1). The agent is the framework shim.
  cluster::Stack stack(cluster::SchedulerKind::kEchelonMadd,
                       cluster::FabricKind::kBigSwitch, /*hosts=*/2,
                       /*port_capacity=*/1.0, /*oversubscription=*/1.0);
  netsim::Simulator& sim = stack.sim();
  const std::vector<NodeId> hosts = sim.topology().hosts();
  runtime::EchelonFlowAgent agent(&stack, JobId{0}, "demo");

  // Three micro-batches, each producing 2 bytes of activations; the
  // consumer computes 1 s per micro-batch -> pipeline arrangement with
  // distance T = 1 (Eq. 6).
  runtime::EchelonFlowRequest request;
  request.label = "activations";
  request.arrangement = ef::Arrangement::pipeline(3, /*T=*/1.0);
  for (int i = 0; i < 3; ++i) {
    request.flows.push_back(runtime::FlowInfo{2.0, hosts[0], hosts[1]});
  }
  const EchelonFlowId ef = agent.register_echelonflow(request);

  // The producer finishes micro-batch i at t = i+1 and posts the flow.
  for (int i = 0; i < 3; ++i) {
    sim.schedule_at(i + 1.0, [&agent, ef, i](netsim::Simulator&) {
      agent.post_flow(ef, i);
    });
  }
  sim.run();

  Table table({"flow", "start", "ideal finish", "actual finish", "tardiness"});
  const ef::EchelonFlow& h = stack.registry().get(ef);
  for (const ef::MemberFlow& m : h.members()) {
    table.add_row({"f" + std::to_string(m.index),
                   Table::num(m.start_time, 1),
                   Table::num(*h.ideal_finish(m.index), 1),
                   Table::num(m.finish_time, 1),
                   Table::num(*h.flow_tardiness(m.index), 1)});
  }
  table.print(std::cout);
  std::cout << "\nEchelonFlow tardiness (Eq. 2): " << h.tardiness()
            << "  (flows finish staggered at 3, 5, 7 -- the Fig. 2c optimum)\n";
  return 0;
}
