// Route interning: canonical Path -> RouteId table, routed from cached
// per-destination hop distances behind a bounded route memo (DESIGN.md §11).
//
// Collectives emit thousands of concurrent flows over a handful of distinct
// routed paths, and Topology::route() -- a BFS plus a forward walk -- used
// to run from scratch on every flow submission and every fault-driven
// reroute. The table splits that cost in three:
//
//   * An *append-only* intern table of distinct paths. intern() returns the
//     existing RouteId when the exact link sequence was seen before, so two
//     flows routed the same way share one id -- the key the RateAllocator's
//     equivalence-class fill groups on. A RouteId, once issued, resolves to
//     the same path forever (path() is epoch-independent); ids are dense
//     indices suitable for counting-sort buckets.
//   * One hop-distance array per destination node (Topology::hop_distances,
//     the BFS half of route()), tagged with the Topology::capacity_epoch()
//     it was computed at. Every topology change -- a link or node added, a
//     link's capacity or up/down state changed -- bumps the epoch, so a
//     lookup reuses the array while the topology is unchanged and
//     recomputes it after any mutation. A run pays one BFS per destination
//     per epoch however many ECMP seeds its flows carry, and the cache holds
//     at most one array per node.
//   * A fixed-size, direct-mapped memo of (src, dst, ECMP seed, epoch) ->
//     RouteId in front of the seed-hashed forward walk (Topology::walk) and
//     the intern. It holds reachable results only, and a colliding key just
//     overwrites its slot, so it never grows; a miss costs one walk plus one
//     intern, never a BFS.
//
// Route computation happens at submission / fault time, outside the
// simulator's zero-allocation steady-state region, so the table may use
// ordinary node-based containers.

#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "topology/graph.hpp"

namespace echelon::topology {

class RouteTable {
 public:
  explicit RouteTable(const Topology* topo) : topo_(topo) {}

  // Cached Topology::route(): returns the interned id of the (deterministic)
  // path from src to dst under `ecmp_seed`, or nullopt when dst is
  // unreachable right now. Answers from the memo when this key was routed
  // in the current capacity epoch; otherwise walks dst's cached hop
  // distances, recomputing them after any topology mutation. The path is
  // link-for-link the one Topology::route() returns.
  [[nodiscard]] std::optional<RouteId> route(NodeId src, NodeId dst,
                                             std::uint64_t ecmp_seed);

  // Interns an explicit path (e.g. a caller-chosen reroute), returning the
  // existing id when the exact link sequence is already in the table.
  [[nodiscard]] RouteId intern(const Path& path);

  // The canonical link sequence of an interned route. Valid forever --
  // interning is append-only and ids are never recycled.
  [[nodiscard]] const Path& path(RouteId id) const {
    return paths_.at(id.value());
  }

  // Distinct paths interned so far (== the smallest unissued RouteId).
  [[nodiscard]] std::size_t size() const noexcept { return paths_.size(); }

  // Telemetry pinned by the route-computation regression test:
  // `computations` counts hop-distance BFS runs (at most one per destination
  // per capacity epoch), `hits` counts route() calls served by the memo or
  // an epoch-valid distance array (hits + computations == lookups), and
  // `unreachable` counts route() calls that found no path. A memo hit
  // always finds dst's array valid too, so the memo moves no counter.
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t computations = 0;
    std::uint64_t unreachable = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  // Heap bytes the memo holds: kMemoSlots entries once the first route()
  // ran, however many distinct keys have been looked up since.
  [[nodiscard]] std::size_t memo_bytes() const noexcept {
    return memo_.capacity() * sizeof(MemoEntry);
  }

 private:
  // Slots in the route memo: a power of two (the slot is a hash mask).
  static constexpr std::size_t kMemoSlots = 4096;

  // Hop distances to one destination, valid while the topology's capacity
  // epoch equals `epoch`; an array not sized to the topology was never
  // computed.
  struct Distances {
    std::uint64_t epoch = 0;
    std::vector<std::uint32_t> dist;
  };

  // One memoised route() result; `route` is invalid in a never-used slot.
  // Node ids are dense indices, so they fit 32 bits.
  struct MemoEntry {
    std::uint64_t seed = 0;
    std::uint64_t epoch = 0;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    RouteId route;
  };

  [[nodiscard]] static std::uint64_t hash_path(const Path& path) noexcept;

  const Topology* topo_;
  Stats stats_;
  std::vector<Path> paths_;  // append-only; indexed by RouteId
  // Exact-match intern index: path hash -> ids of all paths with that hash.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_hash_;
  std::vector<Distances> to_dst_;  // indexed by destination node id
  Path walked_;                    // route()'s reused walk output
  std::vector<MemoEntry> memo_;    // kMemoSlots once route() first runs
};

}  // namespace echelon::topology
