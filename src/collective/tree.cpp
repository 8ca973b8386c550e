#include "collective/tree.hpp"

#include <cassert>

namespace echelon::collective {

namespace {

// For each non-root rank i, its binomial-tree parent clears i's lowest set
// bit; the edge is used in round log2(lowest set bit) counted from the
// root's perspective.
std::size_t lowest_bit(std::size_t i) { return i & (~i + 1); }

}  // namespace

CollectiveHandles tree_broadcast(netsim::Workflow& wf,
                                 const std::vector<NodeId>& hosts,
                                 Bytes data_bytes, FlowTag& tag,
                                 const std::string& label) {
  const std::size_t m = hosts.size();
  assert(m >= 2);
  CollectiveHandles h;
  h.start = wf.add_barrier(label + ".bc.start");
  h.done = wf.add_barrier(label + ".bc.done");

  // recv_node[i]: the flow that delivers the payload to rank i.
  std::vector<netsim::WfNodeId> recv_node(m);
  std::string name = label + ".bc.n";
  const std::size_t prefix = name.size();
  // Process ranks in increasing order: a rank's parent (i - lowbit(i)) is
  // always smaller, so its delivering flow exists by the time we need it.
  for (std::size_t i = 1; i < m; ++i) {
    const std::size_t parent = i - lowest_bit(i);
    netsim::FlowSpec spec{
        .src = hosts[parent], .dst = hosts[i], .size = data_bytes};
    tag.stamp(spec);
    name.resize(prefix);
    append_number(name, i);
    recv_node[i] = wf.add_flow(spec, name);
    if (parent == 0) {
      wf.add_dep(h.start, recv_node[i]);
    } else {
      wf.add_dep(recv_node[parent], recv_node[i]);
    }
    wf.add_dep(recv_node[i], h.done);
    h.flow_nodes.push_back(recv_node[i]);
  }
  return h;
}

CollectiveHandles tree_reduce(netsim::Workflow& wf,
                              const std::vector<NodeId>& hosts,
                              Bytes data_bytes, FlowTag& tag,
                              const std::string& label) {
  const std::size_t m = hosts.size();
  assert(m >= 2);
  CollectiveHandles h;
  h.start = wf.add_barrier(label + ".rd.start");
  h.done = wf.add_barrier(label + ".rd.done");

  // Mirror of broadcast: rank i sends its (partially reduced) payload to
  // its parent, after receiving from all of its own children. Children of i
  // are i + 2^k for 2^k < lowbit(i) (or < m for the root).
  std::vector<netsim::WfNodeId> send_node(m);
  std::string name = label + ".rd.n";
  const std::size_t prefix = name.size();
  for (std::size_t i = m; i-- > 1;) {
    const std::size_t parent = i - lowest_bit(i);
    netsim::FlowSpec spec{
        .src = hosts[i], .dst = hosts[parent], .size = data_bytes};
    tag.stamp(spec);
    name.resize(prefix);
    append_number(name, i);
    send_node[i] = wf.add_flow(spec, name);
    wf.add_dep(h.start, send_node[i]);
    wf.add_dep(send_node[i], h.done);
    h.flow_nodes.push_back(send_node[i]);
  }
  // Dependencies: i's send waits for every child's send (data to reduce).
  for (std::size_t i = 1; i < m; ++i) {
    const std::size_t parent = i - lowest_bit(i);
    if (parent != 0) wf.add_dep(send_node[i], send_node[parent]);
  }
  return h;
}

}  // namespace echelon::collective
