#include "runtime/priority_queue.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace echelon::runtime {

void PriorityQueueEnforcer::control(netsim::Simulator& sim,
                                    std::span<netsim::Flow*> active) {
  inner_->control(sim, active);

  const topology::Topology& topo = sim.topology();
  for (netsim::Flow* f : active) {
    if (f->path.empty()) continue;  // loopback: nothing to enforce
    double bottleneck = std::numeric_limits<double>::infinity();
    for (LinkId lid : f->path) {
      bottleneck = std::min(bottleneck, topo.link(lid).capacity);
    }
    const double ideal = f->rate_cap.value_or(bottleneck);
    const double share = bottleneck > 0.0 ? ideal / bottleneck : 0.0;

    // Queue 0 = shares near 1, each further queue halves the weight; shares
    // below 2^-(K-1) all land in the last (lowest-priority) queue.
    const double floor_share = std::ldexp(1.0, -(config_.num_queues - 1));
    const double clamped = std::clamp(share, floor_share, 1.0);
    const int queue = std::min(config_.num_queues - 1,
                               static_cast<int>(-std::floor(std::log2(clamped))));

    f->weight = std::ldexp(1.0, -queue);
    f->rate_cap.reset();  // enforcement is weighted sharing only
  }
}

}  // namespace echelon::runtime
