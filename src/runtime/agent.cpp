#include "runtime/agent.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace echelon::runtime {

EchelonFlowAgent::EchelonFlowAgent(cluster::Stack* stack, JobId job,
                                   std::string framework_name)
    : stack_(stack), job_(job), framework_name_(std::move(framework_name)) {
  assert(stack != nullptr);
}

EchelonFlowId EchelonFlowAgent::register_echelonflow(
    EchelonFlowRequest request) {
  if (static_cast<int>(request.flows.size()) != request.arrangement.size()) {
    throw std::invalid_argument(
        "agent: request '" + request.label + "' has " +
        std::to_string(request.flows.size()) + " flows for an arrangement of " +
        std::to_string(request.arrangement.size()));
  }
  const EchelonFlowId id = stack_->registry().create(
      job_, request.arrangement, request.label, request.weight);
  registrations_.emplace(id.value(), std::move(request));
  return id;
}

FlowId EchelonFlowAgent::post_flow(EchelonFlowId ef, int index,
                                   netsim::Simulator::FlowCallback on_done) {
  const auto it = registrations_.find(ef.value());
  if (it == registrations_.end()) {
    throw std::out_of_range("agent: post_flow for EchelonFlow " +
                            std::to_string(ef.value()) +
                            ", which this agent never registered");
  }
  const EchelonFlowRequest& req = it->second;
  if (index < 0 || index >= static_cast<int>(req.flows.size())) {
    throw std::out_of_range("agent: post_flow index " + std::to_string(index) +
                            " outside EchelonFlow " +
                            std::to_string(ef.value()) + "'s " +
                            std::to_string(req.flows.size()) + " flows");
  }
  const FlowInfo& info = req.flows[static_cast<std::size_t>(index)];

  const netsim::FlowSpec spec{.src = info.src,
                              .dst = info.dst,
                              .size = info.size,
                              .job = job_,
                              .group = ef,
                              .index_in_group = index};
  ++posted_;
  return stack_->sim().submit_flow(spec, std::move(on_done),
                                   req.label + "#" + std::to_string(index));
}

}  // namespace echelon::runtime
