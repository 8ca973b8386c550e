#include "echelon/srpt.hpp"

#include <algorithm>

namespace echelon::ef {

void SrptScheduler::control(netsim::Simulator& sim,
                            std::span<netsim::Flow*> active) {
  ++stats_.passes;
  ++stats_.full_passes;
  order_.clear();
  for (netsim::Flow* f : active) {
    if (!detail::reset_loopback(*f)) order_.push_back(f);
  }
  // (remaining, id) is a total order, so plain std::sort suffices (and,
  // unlike stable_sort, allocates no merge buffer).
  std::sort(order_.begin(), order_.end(),
            [](const netsim::Flow* a, const netsim::Flow* b) {
              if (a->remaining != b->remaining) {
                return a->remaining < b->remaining;
              }
              return a->id < b->id;  // deterministic tie-break
            });

  caps_.reset(&sim.topology());
  for (netsim::Flow* f : order_) caps_.grant_residual(*f);
}

}  // namespace echelon::ef
