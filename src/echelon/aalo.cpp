#include "echelon/aalo.hpp"

namespace echelon::ef {

void AaloScheduler::on_flow_arrival(netsim::Simulator&,
                                    const netsim::Flow& flow) {
  group_arrival_.try_emplace(detail::coflow_key(flow), arrival_counter_++);
}

void AaloScheduler::control(netsim::Simulator& sim,
                            std::span<netsim::Flow*> active) {
  ++stats_.passes;
  ++stats_.full_passes;

  pass_.build(active, [](const netsim::Flow& f) {
    return detail::Keyed{.key = detail::coflow_key(f)};
  });

  // Rank (queue, arrival, key): FIFO within a queue level; key ascending
  // replicates the seed's stable_sort over its key-ascending std::map for
  // the degenerate hook-less case where arrival stamps tie.
  for (detail::Group& g : pass_.groups()) {
    // Observable bytes only: what this group's *active* flows have put on
    // the wire. (Finished flows of long-lived groups age the group upward
    // implicitly through arrival order, as in Aalo's per-epoch reset.)
    // Accumulated in span order, matching the seed bit-for-bit.
    Bytes sent = 0.0;
    for (const detail::Member& m : pass_.members(g)) {
      sent += m.flow->spec.size - m.flow->remaining;
    }
    // Queue level from sent bytes: level k iff sent >= base * multiplier^k.
    double threshold = config_.base_threshold;
    int q = 0;
    while (q < config_.num_queues - 1 && sent >= threshold) {
      threshold *= config_.multiplier;
      ++q;
    }
    const auto it = group_arrival_.find(g.key);
    g.rank = q;
    g.tie = it != group_arrival_.end() ? it->second : arrival_counter_;
  }
  pass_.rank();

  // Strict priority across the order; flows of one group water-fill.
  caps_.reset(&sim.topology());
  for (const std::uint32_t gi : pass_.order()) {
    for (const detail::Member& m : pass_.members(pass_.groups()[gi])) {
      caps_.grant_residual(*m.flow);
    }
  }
}

}  // namespace echelon::ef
