#include "collective/ps.hpp"

#include <cassert>

namespace echelon::collective {

namespace {

CollectiveHandles star(netsim::Workflow& wf,
                       const std::vector<NodeId>& workers, NodeId hub,
                       Bytes bytes, bool to_hub, FlowTag& tag,
                       const std::string& label) {
  assert(!workers.empty());
  CollectiveHandles h;
  h.start = wf.add_barrier(label + ".start");
  h.done = wf.add_barrier(label + ".done");
  std::string name = label;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    netsim::FlowSpec spec{.src = to_hub ? workers[i] : hub,
                          .dst = to_hub ? hub : workers[i],
                          .size = bytes};
    tag.stamp(spec);
    name.resize(label.size());
    name += ".n";
    append_number(name, i);
    const netsim::WfNodeId fn = wf.add_flow(spec, name);
    wf.add_dep(h.start, fn);
    wf.add_dep(fn, h.done);
    h.flow_nodes.push_back(fn);
  }
  return h;
}

}  // namespace

CollectiveHandles ps_push(netsim::Workflow& wf,
                          const std::vector<NodeId>& workers, NodeId ps,
                          Bytes grad_bytes, FlowTag& tag,
                          const std::string& label) {
  return star(wf, workers, ps, grad_bytes, /*to_hub=*/true, tag,
              label + ".push");
}

CollectiveHandles ps_pull(netsim::Workflow& wf,
                          const std::vector<NodeId>& workers, NodeId ps,
                          Bytes model_bytes, FlowTag& tag,
                          const std::string& label) {
  return star(wf, workers, ps, model_bytes, /*to_hub=*/false, tag,
              label + ".pull");
}

}  // namespace echelon::collective
