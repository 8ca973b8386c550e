#include "runtime/agent.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace echelon::runtime {

EchelonFlowAgent::EchelonFlowAgent(netsim::Simulator* sim,
                                   Coordinator* coordinator, JobId job,
                                   std::string framework_name)
    : sim_(sim),
      coordinator_(coordinator),
      job_(job),
      framework_name_(std::move(framework_name)) {
  assert(sim != nullptr && coordinator != nullptr);
}

EchelonFlowId EchelonFlowAgent::register_echelonflow(
    EchelonFlowRequest request) {
  request.job = job_;
  const EchelonFlowId id = coordinator_->accept_request(request);
  registrations_.emplace(id.value(), Registration{std::move(request)});
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
  const EchelonFlowRequest& req = it->second.request;
  if (index < 0 || index >= static_cast<int>(req.flows.size())) {
    throw std::out_of_range("agent: post_flow index " + std::to_string(index) +
                            " outside EchelonFlow " +
                            std::to_string(ef.value()) + "'s " +
                            std::to_string(req.flows.size()) + " flows");
  }
  const FlowInfo& info = req.flows[static_cast<std::size_t>(index)];

  netsim::FlowSpec spec{
      .src = info.src,
      .dst = info.dst,
      .size = info.size,
      .job = job_,
      .group = ef,
      .index_in_group = index,
      .signature =
          req.signature_base == 0
              ? 0
              : req.signature_base + static_cast<std::uint64_t>(index)};
  ++posted_;
  return sim_->submit_flow(spec, std::move(on_done),
                           req.label + "#" + std::to_string(index));
}

}  // namespace echelon::runtime
