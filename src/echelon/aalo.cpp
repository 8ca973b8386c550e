#include "echelon/aalo.hpp"

#include <algorithm>
#include <cmath>

namespace echelon::ef {

namespace {

[[nodiscard]] std::uint64_t group_key(const netsim::Flow& f) {
  return f.spec.group.valid() ? f.spec.group.value()
                              : (1ULL << 63) | f.id.value();
}

}  // namespace

void AaloScheduler::on_flow_arrival(netsim::Simulator&,
                                    const netsim::Flow& flow) {
  group_arrival_.try_emplace(group_key(flow), arrival_counter_++);
}

void AaloScheduler::control(netsim::Simulator& sim,
                            std::span<netsim::Flow*> active) {
  // --- group by coflow id (two-pass counting into the flat arena) -----------
  groups_.clear();
  key_slots_.begin_pass(active.size());
  std::size_t routed = 0;
  for (netsim::Flow* f : active) {
    if (f->path.empty()) {
      f->weight = 1.0;
      f->rate_cap.reset();
      continue;
    }
    ++routed;
    bool inserted = false;
    std::uint32_t& slot = key_slots_.find_or_insert(group_key(*f), inserted);
    if (inserted) {
      slot = static_cast<std::uint32_t>(groups_.size());
      Grp g;
      g.key = group_key(*f);
      const auto it = group_arrival_.find(g.key);
      g.arrival = it != group_arrival_.end() ? it->second : arrival_counter_;
      groups_.push_back(g);
    }
    ++groups_[slot].end;  // member count; converted to offsets below
  }
  members_.resize(routed);
  std::uint32_t running = 0;
  for (Grp& g : groups_) {
    const std::uint32_t count = g.end;
    g.begin = running;
    g.end = running;  // fill cursor
    running += count;
  }
  for (netsim::Flow* f : active) {
    if (f->path.empty()) continue;
    const std::uint32_t slot = *key_slots_.find(group_key(*f));
    Grp& g = groups_[slot];
    members_[g.end++] = f;
    // Observable bytes only: what this group's *active* flows have put on
    // the wire. (Finished flows of long-lived groups age the group upward
    // implicitly through arrival order, as in Aalo's per-epoch reset.)
    // Accumulated in span order, matching the seed bit-for-bit.
    g.sent += f->spec.size - f->remaining;
  }

  // Queue level from sent bytes: level k iff sent >= base * multiplier^k.
  order_.clear();
  for (std::uint32_t i = 0; i < groups_.size(); ++i) {
    Grp& g = groups_[i];
    double threshold = config_.base_threshold;
    int q = 0;
    while (q < config_.num_queues - 1 && g.sent >= threshold) {
      threshold *= config_.multiplier;
      ++q;
    }
    g.queue = q;
    order_.push_back(i);
  }
  // (queue, arrival, key): FIFO within a level; key ascending replicates the
  // seed's stable_sort over its key-ascending std::map for the degenerate
  // hook-less case where arrival stamps tie.
  std::sort(order_.begin(), order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              const Grp& ga = groups_[a];
              const Grp& gb = groups_[b];
              if (ga.queue != gb.queue) return ga.queue < gb.queue;
              if (ga.arrival != gb.arrival) return ga.arrival < gb.arrival;
              return ga.key < gb.key;
            });

  // Strict priority across the order; flows of one group water-fill.
  caps_.reset(&sim.topology());
  for (const std::uint32_t gi : order_) {
    const Grp& g = groups_[gi];
    for (std::uint32_t i = g.begin; i < g.end; ++i) {
      netsim::Flow* f = members_[i];
      const double rate = caps_.path_residual(*f);
      f->weight = 1.0;
      f->rate_cap = std::isfinite(rate) ? rate : 0.0;
      caps_.consume(*f, *f->rate_cap);
    }
  }
}

}  // namespace echelon::ef
