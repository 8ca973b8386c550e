#include "echelon/srpt.hpp"

#include <algorithm>
#include <cmath>

namespace echelon::ef {

void SrptScheduler::control(netsim::Simulator& sim,
                            std::span<netsim::Flow*> active) {
  ++stats_.passes;
  ++stats_.full_passes;
  order_.clear();
  for (netsim::Flow* f : active) {
    if (f->path.empty()) {
      f->set_weight(1.0);
      f->clear_rate_cap();
      continue;
    }
    order_.push_back(f);
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
  for (netsim::Flow* f : order_) {
    const double rate = caps_.path_residual(*f);
    f->set_weight(1.0);
    f->set_rate_cap(std::isfinite(rate) ? rate : 0.0);
    caps_.consume(*f, f->rate_cap.value());
  }
}

}  // namespace echelon::ef
