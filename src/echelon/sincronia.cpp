#include "echelon/sincronia.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

namespace echelon::ef {

void SincroniaScheduler::control(netsim::Simulator& sim,
                                 std::span<netsim::Flow*> active) {
  ++stats_.passes;
  ++stats_.full_passes;

  struct Group {
    std::vector<netsim::Flow*> flows;
    std::unordered_map<std::uint64_t, Bytes> port_load;
    bool placed = false;
  };
  std::map<std::uint64_t, Group> groups;
  for (netsim::Flow* f : active) {
    if (detail::reset_loopback(*f)) continue;
    Group& g = groups[detail::coflow_key(*f)];
    g.flows.push_back(f);
    for (LinkId lid : f->path) g.port_load[lid.value()] += f->remaining;
  }
  if (groups.empty()) return;

  // --- BSSI: build the order back to front -----------------------------------
  const topology::Topology& topo = sim.topology();
  std::vector<Group*> reverse_order;
  reverse_order.reserve(groups.size());
  std::unordered_map<std::uint64_t, Bytes> port_total;
  for (const auto& [key, g] : groups) {
    (void)key;
    for (const auto& [port, bytes] : g.port_load) port_total[port] += bytes;
  }
  for (std::size_t placed = 0; placed < groups.size(); ++placed) {
    // Most-bottlenecked port: largest normalized residual demand.
    std::uint64_t bottleneck = 0;
    double worst = -1.0;
    for (const auto& [port, bytes] : port_total) {
      const double cap = topo.link(LinkId{port}).capacity;
      const double load = cap > 0.0 ? bytes / cap : bytes;
      if (load > worst) {
        worst = load;
        bottleneck = port;
      }
    }
    // Among unplaced groups using it, the largest contributor goes last.
    Group* last = nullptr;
    Bytes last_bytes = -1.0;
    for (auto& [key, g] : groups) {
      (void)key;
      if (g.placed) continue;
      const auto it = g.port_load.find(bottleneck);
      const Bytes b = it != g.port_load.end() ? it->second : 0.0;
      if (b > last_bytes) {
        last_bytes = b;
        last = &g;
      }
    }
    last->placed = true;
    reverse_order.push_back(last);
    for (const auto& [port, bytes] : last->port_load) {
      port_total[port] -= bytes;
    }
  }

  // --- greedy order-respecting water-fill -------------------------------------
  caps_.reset(&topo);
  for (auto it = reverse_order.rbegin(); it != reverse_order.rend(); ++it) {
    for (netsim::Flow* f : (*it)->flows) caps_.grant_residual(*f);
  }
}

}  // namespace echelon::ef
