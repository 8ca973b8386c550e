// Equivalence-class water-fill (DESIGN.md §11).
//
// Collective traffic is many flows over few routes: a 1024-GPU ring emits
// thousands of flows but only as many distinct routed paths as there are
// adjacent host pairs. The class-granularity fill exploits that by running
// the max-min loop over (route, weight, cap) equivalence classes and
// fanning rates back with one dense scatter, so per-pass cost scales with
// *distinct routes*, not flows. This benchmark measures both sides of
// that bet on a 64-host big-switch fabric (the per-flow fill it was once
// compared against is gone; EXPERIMENTS.md EXT-Q keeps the historical
// ratios):
//
//   * The grid (flows x routes): weight-1 flows with MADD-style staggered
//     per-route caps (what the Echelon/Coflow schedulers emit), so every
//     route is one (route, weight, cap) class and the progressive fill
//     freezes one class per round -- the multi-round worst case, costing
//     O(routes x rounds) plus one O(flows) scatter.
//   * AllDistinct -- the adversarial input: every flow carries a direct
//     path write and no interned RouteId, so the partition degenerates to
//     65536 sentinel singleton classes and the class fill pays its
//     bookkeeping with zero compression.
//   * RouteLookup -- the routing half: serve-shaped RouteTable::route()
//     lookups, each with its own ECMP seed, through a cold table on the
//     64-host 2:1 leaf-spine the service runs on.
//
// Benchmark names carry a "routes:" argument; tools/check_bench_regression.py
// treats that as a structural family (excluded from the machine-speed
// calibration median, like "threads:"). Emit JSON for trajectory tracking
// with: bench_route_class --benchmark_format=json

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "netsim/allocator.hpp"
#include "netsim/flow.hpp"
#include "topology/builders.hpp"
#include "topology/route_table.hpp"

namespace {

using namespace echelon;

constexpr int kHosts = 64;

struct Population {
  topology::BuiltFabric fabric;
  topology::RouteTable table;
  std::vector<netsim::Flow> flows;
  std::vector<netsim::Flow*> active;

  Population() : fabric(topology::make_big_switch(kHosts, gbps(100))),
                 table(&fabric.topo) {}
};

// `n_flows` weight-1 flows striped over `n_routes` distinct (src, dst)
// pairs, every flow's path interned through one RouteTable so flows on the
// same pair share the RouteId the class partition groups on. Each route
// carries a distinct staggered rate cap, every one binding: the fill
// freezes exactly one class per round, the progressive-filling worst case.
// Each source port sits just under the sum of its flows' caps, so the caps
// do not fit and every pass fills; the port's last class freezes on it.
Population make_population(int n_flows, int n_routes, bool interned) {
  Population p;
  std::vector<RouteId> routes;
  routes.reserve(static_cast<std::size_t>(n_routes));
  for (int r = 0; r < n_routes; ++r) {
    const int src = r % kHosts;
    int dst = (src + 1 + r / kHosts) % kHosts;
    if (dst == src) dst = (dst + 1) % kHosts;
    const auto rid =
        p.table.route(p.fabric.hosts[static_cast<std::size_t>(src)],
                      p.fabric.hosts[static_cast<std::size_t>(dst)],
                      static_cast<std::uint64_t>(r));
    routes.push_back(*rid);
  }
  p.flows.reserve(static_cast<std::size_t>(n_flows));
  for (int i = 0; i < n_flows; ++i) {
    netsim::Flow f;
    f.id = FlowId{static_cast<std::uint64_t>(i)};
    f.spec.size = 1e12;
    f.remaining = f.spec.size;
    f.weight = 1.0;
    const int r = i % n_routes;
    const RouteId rid = routes[static_cast<std::size_t>(r)];
    f.path = p.table.path(rid);
    // Strictly increasing per-route caps; ~1024 flows per port at the top
    // grid point average ~0.03 Gbps each.
    f.rate_cap = gbps(0.02 * (1.0 + static_cast<double>(r) /
                                        static_cast<double>(n_routes)));
    // When not interned the allocator sees a direct path write (invalid
    // RouteId) and must give the flow its own sentinel singleton class.
    if (interned) f.route = rid;
    p.flows.push_back(std::move(f));
  }
  for (auto& f : p.flows) p.active.push_back(&f);
  benchutil::overcommit_source_ports(p.fabric.topo, p.active);
  return p;
}

void fill_loop(benchmark::State& state, Population& p) {
  netsim::RateAllocator alloc(&p.fabric.topo);
  alloc.allocate(p.active);  // warm the arenas: steady state allocates nothing
  for (auto _ : state) {
    alloc.allocate(p.active);
    benchmark::DoNotOptimize(p.active);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.flows.size()));
  const auto& s = alloc.stats();
  state.counters["flows_per_class"] = benchmark::Counter(
      s.classes == 0 ? 1.0
                     : static_cast<double>(s.class_members) /
                           static_cast<double>(s.classes));
}

// --- the grid: many flows, few routes ----------------------------------------

void BM_RouteClassFill(benchmark::State& state) {
  Population p = make_population(static_cast<int>(state.range(0)),
                                 static_cast<int>(state.range(1)),
                                 /*interned=*/true);
  fill_loop(state, p);
}
BENCHMARK(BM_RouteClassFill)
    ->ArgNames({"flows", "routes"})
    ->Args({16384, 64})
    ->Args({16384, 512})
    ->Args({65536, 64})
    ->Args({65536, 512});

// --- adversarial: every route distinct ---------------------------------------
//
// 512 underlying paths but no interned ids: the class fill sees 65536
// singleton classes, so this is the fill with the class partition and
// scatter buying nothing.

void BM_RouteClassFillAllDistinct(benchmark::State& state) {
  Population p = make_population(static_cast<int>(state.range(0)),
                                 /*n_routes=*/512, /*interned=*/false);
  fill_loop(state, p);
}
BENCHMARK(BM_RouteClassFillAllDistinct)
    ->ArgNames({"flows"})
    ->Args({65536});

// --- route lookups: serve-shaped, cold table ---------------------------------
//
// The service routes every flow on submission, seeded by its flow id, so
// nearly every (src, dst, seed) lookup is new. Each iteration routes
// `routes` such lookups over seeded random host pairs through a fresh
// RouteTable on the service's 64-host 2:1 leaf-spine (8 leaves, 2 spines):
// per-destination hop distances are computed at most once per destination,
// and every lookup pays a forward walk plus an intern.

void BM_RouteLookup(benchmark::State& state) {
  constexpr BytesPerSec kPort = gbps(25);
  const topology::BuiltFabric fabric = topology::make_leaf_spine(
      {.leaves = kHosts / 8,
       .spines = 2,
       .hosts_per_leaf = 8,
       .host_link = kPort,
       .uplink = 8 * kPort / (2 * 2.0)});
  struct Lookup {
    NodeId src;
    NodeId dst;
    std::uint64_t seed;
  };
  std::vector<Lookup> lookups;
  Rng rng(42);
  const std::size_t hosts = fabric.hosts.size();
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    const std::size_t src = rng.uniform_int(hosts);
    const std::size_t dst = (src + 1 + rng.uniform_int(hosts - 1)) % hosts;
    lookups.push_back({fabric.hosts[src], fabric.hosts[dst],
                       static_cast<std::uint64_t>(i + 1)});
  }
  for (auto _ : state) {
    topology::RouteTable table(&fabric.topo);
    for (const Lookup& l : lookups) {
      benchmark::DoNotOptimize(table.route(l.src, l.dst, l.seed));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RouteLookup)->ArgNames({"routes"})->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  const bool not_release = echelon::benchutil::warn_if_not_release();
  benchmark::AddCustomContext("echelon_build_type",
                              echelon::benchutil::kBuildType);
  if (not_release) benchmark::AddCustomContext("echelon_unoptimized", "true");
  // Build provenance: which commit produced these numbers, and whether the
  // tree was dirty (bench_util.hpp).
  benchmark::AddCustomContext("echelon_git_commit",
                              echelon::benchutil::kGitCommit);
  benchmark::AddCustomContext("echelon_git_dirty",
                              echelon::benchutil::kGitDirty);
  benchmark::AddCustomContext(
      "echelon_hardware_concurrency",
      echelon::benchutil::hardware_concurrency_context());
  benchmark::AddCustomContext("echelon_pool_participants",
                              echelon::benchutil::pool_participants_context());
  benchmark::AddCustomContext("echelon_metrics",
                              echelon::benchutil::hotpath_metrics_context());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
