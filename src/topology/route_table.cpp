#include "topology/route_table.hpp"

namespace echelon::topology {

namespace {

// SplitMix64 finalizer: full avalanche so sequential link ids spread across the hash space.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::uint64_t RouteTable::hash_path(const Path& path) noexcept {
  // Order-sensitive chained mix; the empty path (src == dst) hashes to a
  // fixed non-zero constant and interns like any other path.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const LinkId lid : path) h = mix(h ^ lid.value());
  return h;
}

RouteId RouteTable::intern(const Path& path) {
  const std::uint64_t h = hash_path(path);
  std::vector<std::uint32_t>& chain = by_hash_[h];
  // Hash collisions are resolved by exact link-sequence comparison -- two
  // distinct paths never share a RouteId, which the allocator's class
  // partition relies on (same id => same links => same component).
  for (const std::uint32_t idx : chain) {
    if (paths_[idx] == path) return RouteId{idx};
  }
  const auto idx = static_cast<std::uint32_t>(paths_.size());
  paths_.push_back(path);
  chain.push_back(idx);
  return RouteId{idx};
}

std::optional<RouteId> RouteTable::route(NodeId src, NodeId dst,
                                         std::uint64_t ecmp_seed) {
  ++stats_.lookups;
  const std::uint64_t epoch = topo_->capacity_epoch();
  if (memo_.empty()) memo_.resize(kMemoSlots);
  const std::uint64_t ends = src.value() << 32 | dst.value();
  MemoEntry& memo = memo_[mix(ecmp_seed ^ mix(ends)) & (kMemoSlots - 1)];
  if (memo.route.valid() && memo.epoch == epoch && memo.seed == ecmp_seed &&
      memo.src == src.value() && memo.dst == dst.value()) {
    // Routed in this epoch, so dst's distance array is valid as well.
    ++stats_.hits;
    return memo.route;
  }

  const std::size_t nodes = topo_->node_count();
  if (to_dst_.size() < nodes) to_dst_.resize(nodes);
  Distances& d = to_dst_.at(dst.value());
  if (d.dist.size() == nodes && d.epoch == epoch) {
    ++stats_.hits;
  } else {
    ++stats_.computations;
    topo_->hop_distances(dst, d.dist);
    d.epoch = epoch;
  }
  if (!topo_->walk(src, dst, ecmp_seed, d.dist, walked_)) {
    ++stats_.unreachable;
    return std::nullopt;
  }
  const RouteId id = intern(walked_);
  memo = MemoEntry{.seed = ecmp_seed,
                   .epoch = epoch,
                   .src = static_cast<std::uint32_t>(src.value()),
                   .dst = static_cast<std::uint32_t>(dst.value()),
                   .route = id};
  return id;
}

}  // namespace echelon::topology
