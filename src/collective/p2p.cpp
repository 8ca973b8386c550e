#include "collective/p2p.hpp"

#include <cassert>

namespace echelon::collective {

CollectiveHandles p2p(netsim::Workflow& wf, NodeId src, NodeId dst,
                      Bytes bytes, FlowTag& tag, const std::string& label) {
  CollectiveHandles h;
  h.start = wf.add_barrier(label + ".start");
  h.done = wf.add_barrier(label + ".done");
  netsim::FlowSpec spec{.src = src, .dst = dst, .size = bytes};
  tag.stamp(spec);
  const netsim::WfNodeId fn = wf.add_flow(spec, label);
  wf.add_dep(h.start, fn);
  wf.add_dep(fn, h.done);
  h.flow_nodes.push_back(fn);
  return h;
}

CollectiveHandles all_to_all(netsim::Workflow& wf,
                             const std::vector<NodeId>& hosts,
                             Bytes bytes_per_pair, FlowTag& tag,
                             const std::string& label) {
  assert(hosts.size() >= 2);
  CollectiveHandles h;
  h.start = wf.add_barrier(label + ".start");
  h.done = wf.add_barrier(label + ".done");
  std::string name = label;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    for (std::size_t j = 0; j < hosts.size(); ++j) {
      if (i == j) continue;
      netsim::FlowSpec spec{
          .src = hosts[i], .dst = hosts[j], .size = bytes_per_pair};
      tag.stamp(spec);
      name.resize(label.size());
      name += '.';
      append_number(name, i);
      name += '>';
      append_number(name, j);
      const netsim::WfNodeId fn = wf.add_flow(spec, name);
      wf.add_dep(h.start, fn);
      wf.add_dep(fn, h.done);
      h.flow_nodes.push_back(fn);
    }
  }
  return h;
}

}  // namespace echelon::collective
