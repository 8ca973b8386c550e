#include "echelon/sincronia.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/scatter.hpp"

namespace echelon::ef {

namespace {

[[nodiscard]] double score_of(Bytes total, double capacity) {
  return capacity > 0.0 ? total / capacity : total;
}

}  // namespace

void SincroniaScheduler::control(netsim::Simulator& sim,
                                 std::span<netsim::Flow*> active) {
  ++stats_.passes;
  ++stats_.full_passes;

  pass_.build(active, [](const netsim::Flow& f) {
    return detail::Keyed{.key = detail::coflow_key(f)};
  });
  const std::size_t groups = pass_.groups().size();
  if (groups == 0) return;
  pass_.rank();  // every rank and tie is 0: ascending key order
  const topology::Topology& topo = sim.topology();

  // --- BSSI: build the order back to front -----------------------------------
  // Scores are sums of remaining bytes, which undershoot zero by rounding
  // at most, so the top of the tournament always beats the seed's -1
  // starting maximum: it is the seed's bottleneck, a tie going to the lowest
  // LinkId. The one group left after the others are placed goes first
  // whatever the bottleneck.
  placed_.assign(groups, 0);
  reverse_order_.clear();
  if (groups > 1) load_ports(topo);
  for (std::size_t placed = 0; placed + 1 < groups; ++placed) {
    const std::uint32_t last = pick_last(tree_[1]);
    placed_[last] = 1;
    reverse_order_.push_back(last);
    for (std::uint32_t i = group_loads_[last]; i < group_loads_[last + 1];
         ++i) {
      ports_[loads_[i].port].total -= loads_[i].bytes;
      rescore(loads_[i].port);
    }
  }
  reverse_order_.push_back(static_cast<std::uint32_t>(
      std::find(placed_.begin(), placed_.end(), 0) - placed_.begin()));

  // --- greedy order-respecting water-fill -------------------------------------
  caps_.reset(&topo);
  for (auto it = reverse_order_.rbegin(); it != reverse_order_.rend(); ++it) {
    const detail::Group& g = pass_.groups()[pass_.order()[*it]];
    for (const detail::Member& m : pass_.members(g)) {
      caps_.grant_residual(*m.flow);
    }
  }
}

// Fills loads_ with every group's per-port bytes (groups in key order),
// then totals the ports, lists their contributors and seeds the tournament.
void SincroniaScheduler::load_ports(const topology::Topology& topo) {
  const std::vector<std::uint32_t>& order = pass_.order();
  ports_.clear();
  loads_.clear();
  group_loads_.clear();
  port_of_.resize(topo.link_count());
  for (std::uint32_t pos = 0; pos < order.size(); ++pos) {
    const auto begin = static_cast<std::uint32_t>(loads_.size());
    group_loads_.push_back(begin);
    for (const detail::Member& m : pass_.members(pass_.groups()[order[pos]])) {
      for (const LinkId lid : m.flow->path) {
        const auto link = static_cast<std::uint32_t>(lid.value());
        std::uint32_t p = port_of_[link];
        if (p >= ports_.size() || ports_[p].link != link) {
          p = static_cast<std::uint32_t>(ports_.size());
          port_of_[link] = p;
          ports_.push_back(
              Port{.capacity = topo.link(lid).capacity, .link = link});
        } else if (ports_[p].last_load >= begin) {
          loads_[ports_[p].last_load].bytes += m.flow->remaining;
          continue;
        }
        ports_[p].last_load = static_cast<std::uint32_t>(loads_.size());
        loads_.push_back(
            PortLoad{.port = p, .group = pos, .bytes = 0.0 + m.flow->remaining});
      }
    }
    // A port's total adds its groups' bytes in ascending key order.
    for (std::uint32_t i = begin; i < loads_.size(); ++i) {
      ports_[loads_[i].port].total += loads_[i].bytes;
    }
  }
  group_loads_.push_back(static_cast<std::uint32_t>(loads_.size()));

  // Contributor lists keep loads_ order, so each is in ascending key order.
  const std::size_t ports = ports_.size();
  bucket_scatter(
      loads_.size(), ports, [this](std::size_t i) { return loads_[i].port; },
      [](std::size_t i) { return static_cast<std::uint32_t>(i); }, start_,
      cursor_, contributors_);
  live_end_.assign(start_.begin() + 1, start_.end());

  for (Port& p : ports_) p.score = score_of(p.total, p.capacity);
  ports_.push_back(Port{.score = -std::numeric_limits<double>::infinity(),
                        .link = std::numeric_limits<std::uint32_t>::max()});
  leaves_ = std::bit_ceil(ports);
  tree_.assign(2 * leaves_, static_cast<std::uint32_t>(ports));
  for (std::uint32_t p = 0; p < ports; ++p) tree_[leaves_ + p] = p;
  for (std::size_t i = leaves_ - 1; i >= 1; --i) play(i);
}

// Node i's match goes to the higher score, and to the lower LinkId on a
// tie, so tree_[1] is the seed's first strict maximum in LinkId order.
void SincroniaScheduler::play(std::size_t i) {
  const std::uint32_t a = tree_[2 * i];
  const std::uint32_t b = tree_[2 * i + 1];
  const Port& pa = ports_[a];
  const Port& pb = ports_[b];
  const bool b_wins =
      pb.score > pa.score || (pb.score == pa.score && pb.link < pa.link);
  tree_[i] = b_wins ? b : a;
}

// Re-reads the port's score and replays its matches towards the top. Once a
// match keeps a winner other than this port, nothing above it changes.
void SincroniaScheduler::rescore(std::uint32_t port) {
  Port& p = ports_[port];
  p.score = score_of(p.total, p.capacity);
  for (std::size_t i = (leaves_ + port) / 2; i >= 1; i /= 2) {
    const std::uint32_t before = tree_[i];
    play(i);
    if (tree_[i] == before && before != port) break;
  }
}

// The unplaced group with the most bytes on `port`, first in key order on a
// tie. Placed contributors met on the way are dropped from the port's list.
std::uint32_t SincroniaScheduler::pick_last(std::uint32_t port) {
  std::uint32_t* const first = contributors_.data() + start_[port];
  std::uint32_t* const last = contributors_.data() + live_end_[port];
  std::uint32_t* live = first;
  std::uint32_t winner = 0;
  Bytes best = -1.0;
  for (std::uint32_t* it = first; it != last; ++it) {
    const PortLoad& l = loads_[*it];
    if (placed_[l.group] != 0) continue;
    *live++ = *it;
    if (l.bytes > best) {
      best = l.bytes;
      winner = l.group;
    }
  }
  live_end_[port] = static_cast<std::uint32_t>(live - contributors_.data());
  if (best > 0.0) return winner;

  // No unplaced group has positive bytes on the port: rounding residue or
  // members with nothing left made it the bottleneck. A group off the port
  // counts 0 bytes, so scan every unplaced group in key order.
  bottleneck_bytes_.assign(placed_.size(), 0.0);
  for (const std::uint32_t* it = first; it != live; ++it) {
    bottleneck_bytes_[loads_[*it].group] = loads_[*it].bytes;
  }
  best = -1.0;
  for (std::uint32_t g = 0; g < placed_.size(); ++g) {
    if (placed_[g] == 0 && bottleneck_bytes_[g] > best) {
      best = bottleneck_bytes_[g];
      winner = g;
    }
  }
  return winner;
}

}  // namespace echelon::ef
