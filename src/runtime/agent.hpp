// The EchelonFlow Agent (paper §5, Fig. 7).
//
// A shim between a DDLT framework and its message-passing backend. The
// framework registers EchelonFlows (arrangement + per-flow info) through the
// agent; when a computation produces data, the framework posts the flow and
// the agent issues the communication call to the backend -- here, submitting
// the flow to the simulated fabric, tagged so the scheduler can place it in
// its EchelonFlow. One agent serves one framework instance (one job); all
// agents share one cluster::Stack, whose registry holds the EchelonFlows and
// whose scheduler (EchelonFlow-MADD for the paper's coordinator) runs the
// control plane.

#pragma once

#include <string>
#include <unordered_map>

#include "cluster/stack.hpp"
#include "netsim/simulator.hpp"
#include "runtime/api.hpp"

namespace echelon::runtime {

class EchelonFlowAgent {
 public:
  EchelonFlowAgent(cluster::Stack* stack, JobId job,
                   std::string framework_name = "framework");

  [[nodiscard]] JobId job() const noexcept { return job_; }
  [[nodiscard]] const std::string& framework_name() const noexcept {
    return framework_name_;
  }

  // Declares the request's EchelonFlow in the Stack's registry and remembers
  // the per-flow info so post_flow can build the actual transfers. Throws
  // std::invalid_argument, naming both sizes and registering nothing, when
  // request.flows does not hold one entry per member of the arrangement.
  EchelonFlowId register_echelonflow(EchelonFlowRequest request);

  // The framework calls this when member `index` of `ef` has data ready.
  // Returns the fabric-level flow id. `on_done` fires at completion (the
  // agent's callback to the framework). Throws std::out_of_range, naming
  // the id or index, for an EchelonFlow this agent did not register or an
  // index outside its flows.
  FlowId post_flow(EchelonFlowId ef, int index,
                   netsim::Simulator::FlowCallback on_done = {});

  [[nodiscard]] std::uint64_t posted_flows() const noexcept {
    return posted_;
  }

 private:
  cluster::Stack* stack_;
  JobId job_;
  std::string framework_name_;
  std::unordered_map<std::uint64_t, EchelonFlowRequest> registrations_;
  std::uint64_t posted_ = 0;
};

}  // namespace echelon::runtime
