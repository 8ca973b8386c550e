// Topology graph with deterministic shortest-path (ECMP-hashed) routing.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "topology/link.hpp"
#include "topology/node.hpp"

namespace echelon::topology {

// A routed path is the ordered list of directed links a flow traverses.
using Path = std::vector<LinkId>;

// Read-only view of a Path stored elsewhere -- for a simulated flow, the
// route interned in the Simulator's RouteTable, whose buffer never moves
// (DESIGN.md §11). Binding a temporary Path does not compile: the view
// would dangle as soon as the temporary died.
class PathView {
 public:
  PathView() = default;
  // Implicit, so `view = table.path(id)` reads like assigning a Path.
  PathView(const Path& path) noexcept : links_(path) {}  // NOLINT
  PathView(const Path&&) = delete;

  [[nodiscard]] auto begin() const noexcept { return links_.begin(); }
  [[nodiscard]] auto end() const noexcept { return links_.end(); }
  [[nodiscard]] std::size_t size() const noexcept { return links_.size(); }
  [[nodiscard]] bool empty() const noexcept { return links_.empty(); }
  [[nodiscard]] LinkId operator[](std::size_t i) const { return links_[i]; }
  [[nodiscard]] LinkId front() const { return links_.front(); }

 private:
  std::span<const LinkId> links_;
};

class Topology {
 public:
  Topology() = default;

  NodeId add_host(std::string name);
  NodeId add_switch(std::string name, int tier = 0);

  // Adds a single directed link. Returns its id. Bumps the capacity epoch:
  // a new link can shorten routes, so cached hop distances and memoised
  // routes must not survive it (add_host / add_switch bump it too).
  LinkId add_link(NodeId src, NodeId dst, BytesPerSec capacity);

  // Changes a link's capacity at runtime -- models failures, degradation
  // (flaky optics, congestion from external tenants) and recovery. Callers
  // driving a live simulation must invalidate its allocation afterwards so
  // rates are recomputed against the new capacity. Bumps the capacity
  // epoch, which invalidates every RouteTable hop-distance array and
  // memoised route.
  void set_link_capacity(LinkId id, BytesPerSec capacity) {
    links_.at(id.value()).capacity = capacity;
    ++capacity_epoch_;
  }

  // Monotonic counter incremented by every topology change: a node or link
  // added, a link's capacity or up/down state changed. Cached state derived
  // from links (RouteTable hop distances and memoised routes) is valid only
  // while this value is unchanged.
  [[nodiscard]] std::uint64_t capacity_epoch() const noexcept {
    return capacity_epoch_;
  }

  // Administratively takes a link down (or back up). A down link carries no
  // traffic and is skipped by route(); capacity is preserved so recovery
  // restores the exact nominal value. Bumps the capacity epoch for the same
  // reason set_link_capacity does: cached hop distances must not survive a
  // reachability change.
  void set_link_up(LinkId id, bool up) {
    std::uint8_t& state = link_up_.at(id.value());
    if (static_cast<bool>(state) == up) return;
    state = up ? 1 : 0;
    ++capacity_epoch_;
  }

  [[nodiscard]] bool link_up(LinkId id) const {
    return link_up_.at(id.value()) != 0;
  }

  // All directed links touching node `n` (both directions) -- used by fault
  // injection to take a whole node down. O(L) scan; not on any hot path.
  [[nodiscard]] std::vector<LinkId> incident_links(NodeId n) const;

  // Adds a full-duplex cable: two directed links. Returns {src->dst, dst->src}.
  std::pair<LinkId, LinkId> add_duplex(NodeId a, NodeId b,
                                       BytesPerSec capacity);

  [[nodiscard]] const Node& node(NodeId id) const { return nodes_.at(id.value()); }
  [[nodiscard]] const Link& link(LinkId id) const { return links_.at(id.value()); }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const noexcept { return links_.size(); }
  [[nodiscard]] const std::vector<Node>& nodes() const noexcept { return nodes_; }
  [[nodiscard]] const std::vector<Link>& links() const noexcept { return links_; }

  [[nodiscard]] std::vector<NodeId> hosts() const;

  // Shortest path (hop count) from src to dst over *up* links only. Among
  // equal-cost paths the choice is deterministic in `ecmp_seed`, so a given
  // flow always takes the same path while different flows spread across
  // parallel links. With every link up the result is identical to the
  // fault-free routing decision. Returns std::nullopt when dst is
  // unreachable (possibly because of down links). Exactly
  // hop_distances(dst) followed by walk(); RouteTable caches the first step.
  [[nodiscard]] std::optional<Path> route(NodeId src, NodeId dst,
                                          std::uint64_t ecmp_seed = 0) const;

  // hop_distances() value of a node with no up path to the destination.
  static constexpr std::uint32_t kUnreachable = 0xffffffffu;

  // Hop count from every node to `dst` over up links (a BFS over reversed
  // links), written into `dist`, which is resized to node_count(). The
  // result depends only on the link set and the up/down state, so it stays
  // valid while capacity_epoch() is unchanged.
  void hop_distances(NodeId dst, std::vector<std::uint32_t>& dist) const;

  // The forward step of route(): from src, repeatedly takes the up link
  // whose head is one hop closer to dst by `dist` (= hop_distances(dst)),
  // breaking ties by the ECMP hash of `ecmp_seed`. Overwrites `path` and
  // returns true, or returns false with `path` empty when dist marks src
  // unreachable.
  [[nodiscard]] bool walk(NodeId src, NodeId dst, std::uint64_t ecmp_seed,
                          std::span<const std::uint32_t> dist,
                          Path& path) const;

  // Out-edges of a node (link ids).
  [[nodiscard]] const std::vector<LinkId>& out_links(NodeId n) const {
    return adjacency_.at(n.value());
  }

  // Structural copy with every link capacity replaced. Node and link ids are
  // preserved, so workflows built against this topology run unchanged on the
  // clone -- used for "infinitely fast network" profiling runs.
  [[nodiscard]] Topology clone_with_capacity(BytesPerSec capacity) const {
    Topology t = *this;
    for (Link& l : t.links_) l.capacity = capacity;
    return t;
  }

 private:
  NodeId add_node(NodeKind kind, std::string name, int tier);

  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> adjacency_;     // out-links, by node id
  std::vector<std::vector<LinkId>> in_adjacency_;  // in-links, by node id
  std::vector<std::uint8_t> link_up_;              // by link id; 1 = up
  std::uint64_t capacity_epoch_ = 0;
};

}  // namespace echelon::topology
