// Sincronia-style coflow ordering (Agarwal et al., SIGCOMM'18), cited by
// the paper among the Coflow schedulers EchelonFlow generalizes.
//
// Sincronia's key result: a good *order* plus any work-conserving,
// order-respecting rate allocation is a 4-approximation for average coflow
// completion time. The order comes from BSSI (Bottleneck-Select-Scale-
// Iterate): repeatedly find the most-bottlenecked port, schedule the coflow
// with the largest remaining bytes on that port *last*, remove it, iterate.
// Rates then water-fill greedily in order.
//
// Included as a second clairvoyant Coflow baseline beside Varys-style
// SEBF+MADD: it optimizes average CCT rather than per-coflow pacing.
// Every control() pass rebuilds the BSSI order over the whole active set.
//
// Runs on the shared group skeleton (echelon/linkcaps.hpp, DESIGN.md §5):
// GroupPass groups the flows by Coflow key and sorts the groups by key;
// each group's per-port bytes go into one flat list, which the shared
// counting scatter (common/scatter.hpp) regroups into per-port contributor
// lists. A placement then reads only the bottleneck port's contributors and
// replays only the placed group's ports in a max tournament over the loaded
// ports. The floating-point operation order is that of the seed's hash-map
// version (ref::Sincronia in tests/test_dense_equivalence.cpp), and a
// bottleneck tie, which the seed broke by hash-map iteration order, goes to
// the lowest LinkId:
//   * a group's port bytes sum over its members in span order, and a port's
//     total over the groups in ascending key order;
//   * the bottleneck is the first strict maximum of bytes/capacity (bytes
//     when capacity <= 0) in ascending LinkId order, so the lowest LinkId
//     wins a tie;
//   * the group placed last is the first strict maximum of its bytes on the
//     bottleneck (0 if it does not use it) over unplaced groups in
//     ascending key order;
//   * flows take their path's residual in placement order, members in span
//     order.
// Every arena grows to its high-water mark, so steady-state passes are
// allocation-free.

#pragma once

#include <cstdint>
#include <vector>

#include "echelon/linkcaps.hpp"
#include "netsim/scheduler.hpp"
#include "netsim/simulator.hpp"

namespace echelon::ef {

class SincroniaScheduler final : public netsim::NetworkScheduler {
 public:
  void control(netsim::Simulator& sim,
               std::span<netsim::Flow*> active) override;

  [[nodiscard]] std::string name() const override { return "sincronia"; }

 private:
  // A loaded port. ports_ ends in a sentinel that scores -inf and pads the
  // tournament.
  struct Port {
    double score = 0.0;  // total / capacity, or total when capacity <= 0
    Bytes total = 0.0;   // bytes of unplaced groups
    double capacity = 0.0;
    std::uint32_t link = 0;
    std::uint32_t last_load = 0;  // the port's newest loads_ entry
  };
  // One group's remaining bytes on one port.
  struct PortLoad {
    std::uint32_t port = 0;   // index into ports_, in first-touch order
    std::uint32_t group = 0;  // position in key order
    Bytes bytes = 0.0;
  };

  void load_ports(const topology::Topology& topo);
  [[nodiscard]] std::uint32_t pick_last(std::uint32_t port);
  void play(std::size_t node);
  void rescore(std::uint32_t port);

  detail::GroupPass pass_;
  detail::ResidualCaps caps_;

  std::vector<Port> ports_;
  // LinkId -> ports_ index; an entry is current only if ports_ points back
  // at the link, so the array is never cleared.
  std::vector<std::uint32_t> port_of_;
  std::vector<PortLoad> loads_;  // by group in key order, then first touch
  std::vector<std::uint32_t> group_loads_;  // key position -> loads_ offset
  // Contributors of port p: loads_ indices in ascending key order, in
  // contributors_[start_[p] .. live_end_[p]); placed groups are dropped
  // from the range as pick_last meets them.
  std::vector<std::uint32_t> start_;
  std::vector<std::uint32_t> cursor_;
  std::vector<std::uint32_t> contributors_;
  std::vector<std::uint32_t> live_end_;
  // Max tournament over the ports: tree_[1] is the port of highest score,
  // lowest LinkId on a tie; port p's leaf is tree_[leaves_ + p].
  std::vector<std::uint32_t> tree_;
  std::size_t leaves_ = 0;
  std::vector<std::uint8_t> placed_;         // by key position
  std::vector<Bytes> bottleneck_bytes_;      // by key position (rare path)
  std::vector<std::uint32_t> reverse_order_;  // key positions, last first
};

}  // namespace echelon::ef
