#include "collective/ring.hpp"

#include <cassert>

namespace echelon::collective {

namespace {

// Shared skeleton for reduce-scatter and all-gather: both move chunks around
// the ring for m-1 steps with identical dependency structure.
CollectiveHandles ring_phase(netsim::Workflow& wf,
                             const std::vector<NodeId>& hosts,
                             Bytes data_bytes, FlowTag& tag,
                             const std::string& label) {
  const std::size_t m = hosts.size();
  assert(m >= 2 && "a ring needs at least two participants");

  CollectiveHandles h;
  h.start = wf.add_barrier(label + ".start");
  h.done = wf.add_barrier(label + ".done");

  const Bytes chunk = data_bytes / static_cast<double>(m);

  // prev_step[i] = flow node where host i was the *sender* in the previous
  // step; host i's send in the next step waits on the chunk it received,
  // i.e. on the previous send of its ring predecessor.
  std::vector<netsim::WfNodeId> prev_step(m);
  std::string name = label;
  for (std::size_t step = 0; step + 1 < m; ++step) {
    std::vector<netsim::WfNodeId> cur(m);
    for (std::size_t i = 0; i < m; ++i) {
      netsim::FlowSpec spec{
          .src = hosts[i], .dst = hosts[(i + 1) % m], .size = chunk};
      tag.stamp(spec);
      name.resize(label.size());
      name += ".s";
      append_number(name, step);
      name += ".n";
      append_number(name, i);
      cur[i] = wf.add_flow(spec, name);
      if (step == 0) {
        wf.add_dep(h.start, cur[i]);
      } else {
        wf.add_dep(prev_step[(i + m - 1) % m], cur[i]);
      }
      wf.add_dep(cur[i], h.done);
      h.flow_nodes.push_back(cur[i]);
    }
    prev_step.swap(cur);
  }
  return h;
}

}  // namespace

CollectiveHandles ring_reduce_scatter(netsim::Workflow& wf,
                                      const std::vector<NodeId>& hosts,
                                      Bytes data_bytes, FlowTag& tag,
                                      const std::string& label) {
  return ring_phase(wf, hosts, data_bytes, tag, label + ".rs");
}

CollectiveHandles ring_all_gather(netsim::Workflow& wf,
                                  const std::vector<NodeId>& hosts,
                                  Bytes data_bytes, FlowTag& tag,
                                  const std::string& label) {
  return ring_phase(wf, hosts, data_bytes, tag, label + ".ag");
}

CollectiveHandles ring_all_reduce(netsim::Workflow& wf,
                                  const std::vector<NodeId>& hosts,
                                  Bytes data_bytes, FlowTag& tag,
                                  const std::string& label) {
  CollectiveHandles rs = ring_reduce_scatter(wf, hosts, data_bytes, tag, label);
  CollectiveHandles ag = ring_all_gather(wf, hosts, data_bytes, tag, label);
  wf.add_dep(rs.done, ag.start);

  CollectiveHandles h;
  h.start = rs.start;
  h.done = ag.done;
  h.flow_nodes = std::move(rs.flow_nodes);
  h.flow_nodes.insert(h.flow_nodes.end(), ag.flow_nodes.begin(),
                      ag.flow_nodes.end());
  return h;
}

}  // namespace echelon::collective
