#include "collective/hd.hpp"

#include <cassert>

namespace echelon::collective {

namespace {

// Shared skeleton: `rounds` pairwise-exchange rounds; in round k, rank i
// exchanges `bytes(k)` with rank i XOR distance(k). The round-k+1 send of
// rank i depends on its round-k send and on the data it received in round k
// (the partner's round-k send).
template <typename DistanceFn, typename BytesFn>
CollectiveHandles hd_phase(netsim::Workflow& wf,
                           const std::vector<NodeId>& hosts, int rounds,
                           DistanceFn distance, BytesFn bytes, FlowTag& tag,
                           const std::string& label) {
  const std::size_t m = hosts.size();
  assert(is_power_of_two(m) && m >= 2 &&
         "halving-doubling needs a power-of-two rank count");

  CollectiveHandles h;
  h.start = wf.add_barrier(label + ".start");
  h.done = wf.add_barrier(label + ".done");

  std::vector<netsim::WfNodeId> prev(m);
  std::string name = label;
  for (int k = 0; k < rounds; ++k) {
    const std::size_t dist = distance(k);
    std::vector<netsim::WfNodeId> cur(m);
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t partner = i ^ dist;
      netsim::FlowSpec spec{
          .src = hosts[i], .dst = hosts[partner], .size = bytes(k)};
      tag.stamp(spec);
      name.resize(label.size());
      name += ".r";
      append_number(name, static_cast<std::size_t>(k));
      name += ".n";
      append_number(name, i);
      cur[i] = wf.add_flow(spec, name);
      if (k == 0) {
        wf.add_dep(h.start, cur[i]);
      } else {
        wf.add_dep(prev[i], cur[i]);                       // own prior send
        wf.add_dep(prev[i ^ distance(k - 1)], cur[i]);     // prior round recv
      }
      wf.add_dep(cur[i], h.done);
      h.flow_nodes.push_back(cur[i]);
    }
    prev.swap(cur);
  }
  return h;
}

int log2_of(std::size_t m) {
  int r = 0;
  while ((std::size_t{1} << r) < m) ++r;
  return r;
}

}  // namespace

CollectiveHandles hd_reduce_scatter(netsim::Workflow& wf,
                                    const std::vector<NodeId>& hosts,
                                    Bytes data_bytes, FlowTag& tag,
                                    const std::string& label) {
  const std::size_t m = hosts.size();
  const int rounds = log2_of(m);
  return hd_phase(
      wf, hosts, rounds,
      [m](int k) { return m >> (k + 1); },                       // m/2, m/4, ..
      [data_bytes](int k) { return data_bytes / double(1ULL << (k + 1)); },
      tag, label + ".rs");
}

CollectiveHandles hd_all_gather(netsim::Workflow& wf,
                                const std::vector<NodeId>& hosts,
                                Bytes data_bytes, FlowTag& tag,
                                const std::string& label) {
  const std::size_t m = hosts.size();
  const int rounds = log2_of(m);
  return hd_phase(
      wf, hosts, rounds,
      [](int k) { return std::size_t{1} << k; },                 // 1, 2, 4, ..
      [data_bytes, m](int k) {
        return data_bytes * double(1ULL << k) / static_cast<double>(m);
      },
      tag, label + ".ag");
}

CollectiveHandles hd_all_reduce(netsim::Workflow& wf,
                                const std::vector<NodeId>& hosts,
                                Bytes data_bytes, FlowTag& tag,
                                const std::string& label) {
  CollectiveHandles rs = hd_reduce_scatter(wf, hosts, data_bytes, tag, label);
  CollectiveHandles ag = hd_all_gather(wf, hosts, data_bytes, tag, label);
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
