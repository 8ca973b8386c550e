#include "topology/graph.hpp"

namespace echelon::topology {

NodeId Topology::add_node(NodeKind kind, std::string name, int tier) {
  const NodeId id{nodes_.size()};
  nodes_.push_back(Node{id, kind, std::move(name), tier});
  adjacency_.emplace_back();
  in_adjacency_.emplace_back();
  ++capacity_epoch_;
  return id;
}

NodeId Topology::add_host(std::string name) {
  return add_node(NodeKind::kHost, std::move(name), 0);
}

NodeId Topology::add_switch(std::string name, int tier) {
  return add_node(NodeKind::kSwitch, std::move(name), tier);
}

LinkId Topology::add_link(NodeId src, NodeId dst, BytesPerSec capacity) {
  const LinkId id{links_.size()};
  links_.push_back(Link{id, src, dst, capacity});
  adjacency_.at(src.value()).push_back(id);
  in_adjacency_.at(dst.value()).push_back(id);
  link_up_.push_back(1);
  ++capacity_epoch_;
  return id;
}

std::vector<LinkId> Topology::incident_links(NodeId n) const {
  std::vector<LinkId> out;
  for (const auto& l : links_) {
    if (l.src == n || l.dst == n) out.push_back(l.id);
  }
  return out;
}

std::pair<LinkId, LinkId> Topology::add_duplex(NodeId a, NodeId b,
                                               BytesPerSec capacity) {
  return {add_link(a, b, capacity), add_link(b, a, capacity)};
}

std::vector<NodeId> Topology::hosts() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_) {
    if (is_host(n)) out.push_back(n.id);
  }
  return out;
}

namespace {
// Mixes the ECMP seed with a candidate link id to pick deterministically
// among equal-cost next hops.
std::uint64_t ecmp_mix(std::uint64_t seed, std::uint64_t v) noexcept {
  std::uint64_t x = seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}
}  // namespace

void Topology::hop_distances(NodeId dst,
                             std::vector<std::uint32_t>& dist) const {
  dist.assign(nodes_.size(), kUnreachable);
  // BFS from dst over reversed up links. `dist` doubles as the visited set;
  // the queue is a flat array consumed by a head index.
  std::vector<std::uint32_t> queue;
  queue.reserve(nodes_.size());
  dist[dst.value()] = 0;
  queue.push_back(static_cast<std::uint32_t>(dst.value()));
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t cur = queue[head];
    for (const LinkId lid : in_adjacency_[cur]) {
      if (!link_up_[lid.value()]) continue;  // down links carry no traffic
      const auto prev =
          static_cast<std::uint32_t>(links_[lid.value()].src.value());
      if (dist[prev] == kUnreachable) {
        dist[prev] = dist[cur] + 1;
        queue.push_back(prev);
      }
    }
  }
}

bool Topology::walk(NodeId src, NodeId dst, std::uint64_t ecmp_seed,
                    std::span<const std::uint32_t> dist, Path& path) const {
  path.clear();
  if (dist[src.value()] == kUnreachable) return false;
  // Walk forward from src, always decreasing the distance, picking among
  // ties by ECMP hash.
  NodeId cur = src;
  while (cur != dst) {
    const std::uint32_t want = dist[cur.value()] - 1;
    LinkId best = LinkId::invalid();
    std::uint64_t best_hash = 0;
    for (LinkId lid : adjacency_[cur.value()]) {
      if (!link_up_[lid.value()]) continue;
      const Link& l = links_[lid.value()];
      if (dist[l.dst.value()] != want) continue;
      const std::uint64_t h = ecmp_mix(ecmp_seed, lid.value());
      if (!best.valid() || h < best_hash) {
        best = lid;
        best_hash = h;
      }
    }
    // dist is this link state's hop_distances(dst) and dist[src] is finite,
    // so a next hop always exists.
    path.push_back(best);
    cur = links_[best.value()].dst;
  }
  return true;
}

std::optional<Path> Topology::route(NodeId src, NodeId dst,
                                    std::uint64_t ecmp_seed) const {
  std::vector<std::uint32_t> dist;
  hop_distances(dst, dist);
  Path path;
  if (!walk(src, dst, ecmp_seed, dist, path)) return std::nullopt;
  return path;
}

}  // namespace echelon::topology
