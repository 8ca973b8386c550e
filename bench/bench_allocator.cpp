// Microbenchmarks of the RateAllocator hot path (see DESIGN.md, "Hot-path
// data layout").
//
// The allocator runs after every scheduler control() pass -- once per flow
// arrival and departure under per-event coordination -- so its per-pass cost
// bounds control-plane throughput together with the scheduler itself. Two
// regimes:
//
//   * FairShare: every flow uncapped with weight 1. Progressive filling
//     iterates until every flow is frozen by a saturated link, exercising
//     the multi-round water-fill worst case.
//   * Capped: every flow carries a MADD-style explicit rate cap (as the
//     Echelon/Coflow schedulers emit), so most flows freeze at their cap in
//     the first rounds. Each source port sits just under its cap sum, so
//     the caps do not fit and the pass fills.
//   * ExplicitRatePass: the same capped population scaled to fit every
//     link -- what the MADD-family schedulers hand over -- so the pass only
//     sums each link's caps and returns them (DESIGN.md §7).
//
// Flow counts match BM_EchelonMaddControlPass (64..4096) so the two
// benchmarks compose into an end-to-end control-plane latency estimate.
//
// Two more families fill link-disjoint components (one src->dst host pair
// each, so every pass fills every component):
//
//   * ComponentFill: 32 capped flows per component -- the staggered-caps
//     progressive-filling worst case, every flow its own equivalence class
//     -- at 64 and 256 components (2,048 / 8,192 flows).
//   * ServeShapedFill: what fair-sharing `serve` passes fill -- 4 flows per
//     component, one equivalence class per flow -- at 32..1,024 flows.
// Emit JSON for trajectory tracking with:
//   bench_allocator --benchmark_format=json

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
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

struct Population {
  topology::BuiltFabric fabric;
  std::vector<netsim::Flow> flows;
  std::vector<netsim::Flow*> active;
  std::unique_ptr<topology::RouteTable> routes;  // owns the flows' paths
};

Population make_population(int n_flows, bool capped) {
  const int hosts = 32;
  Population p{topology::make_big_switch(hosts, gbps(100)), {}, {}, {}};
  p.routes = std::make_unique<topology::RouteTable>(&p.fabric.topo);
  Rng rng(11);
  p.flows.reserve(static_cast<std::size_t>(n_flows));
  for (int i = 0; i < n_flows; ++i) {
    const auto src = rng.uniform_int(static_cast<std::uint64_t>(hosts));
    auto dst = rng.uniform_int(static_cast<std::uint64_t>(hosts));
    if (dst == src) dst = (dst + 1) % static_cast<std::uint64_t>(hosts);
    netsim::Flow f;
    f.id = FlowId{static_cast<std::uint64_t>(i)};
    f.spec.size = rng.uniform(1e6, 1e8);
    f.remaining = f.spec.size;
    f.weight = 1.0 + static_cast<double>(i % 3);
    if (capped) f.rate_cap = rng.uniform(0.1, 1.0) * gbps(10);
    f.path = p.routes->path(*p.routes->route(p.fabric.hosts[src],
                                             p.fabric.hosts[dst],
                                             static_cast<std::uint64_t>(i)));
    p.flows.push_back(std::move(f));
  }
  for (auto& f : p.flows) p.active.push_back(&f);
  return p;
}

void BM_RateAllocatorFairShare(benchmark::State& state) {
  Population p = make_population(static_cast<int>(state.range(0)), false);
  netsim::RateAllocator alloc(&p.fabric.topo);
  for (auto _ : state) {
    alloc.allocate(p.active);
    benchmark::DoNotOptimize(p.active);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RateAllocatorFairShare)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_RateAllocatorCapped(benchmark::State& state) {
  Population p = make_population(static_cast<int>(state.range(0)), true);
  benchutil::overcommit_source_ports(p.fabric.topo, p.active);
  netsim::RateAllocator alloc(&p.fabric.topo);
  for (auto _ : state) {
    alloc.allocate(p.active);
    benchmark::DoNotOptimize(p.active);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RateAllocatorCapped)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ExplicitRatePass(benchmark::State& state) {
  Population p = make_population(static_cast<int>(state.range(0)), true);
  // Scale every cap so the fullest link carries half its capacity.
  std::vector<double> sum(p.fabric.topo.link_count(), 0.0);
  for (const netsim::Flow& f : p.flows) {
    for (const LinkId lid : f.path) sum[lid.value()] += *f.rate_cap;
  }
  const double scale = 0.5 * gbps(100) / *std::max_element(sum.begin(),
                                                           sum.end());
  for (netsim::Flow& f : p.flows) f.rate_cap = *f.rate_cap * scale;
  netsim::RateAllocator alloc(&p.fabric.topo);
  for (auto _ : state) {
    alloc.allocate(p.active);
    benchmark::DoNotOptimize(p.active);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["explicit"] =
      static_cast<double>(alloc.stats().explicit_passes) /
      static_cast<double>(alloc.stats().passes);
}
BENCHMARK(BM_ExplicitRatePass)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

// `n_jobs` independent components: job j's `flows_per_job` flows all cross
// the dedicated host pair (2j, 2j+1), so the union-find partition yields
// exactly n_jobs components with zero shared links. Caps are staggered
// within a job, so every flow is its own equivalence class and each
// water-fill round freezes one flow. Host 2j's port sits just under the
// job's cap sum, so the caps do not fit and every pass fills.
Population make_components(int n_jobs, int flows_per_job) {
  Population p{topology::make_big_switch(2 * n_jobs, gbps(100)), {}, {}, {}};
  p.routes = std::make_unique<topology::RouteTable>(&p.fabric.topo);
  std::uint64_t id = 0;
  p.flows.reserve(static_cast<std::size_t>(n_jobs) * flows_per_job);
  for (int j = 0; j < n_jobs; ++j) {
    for (int k = 0; k < flows_per_job; ++k) {
      netsim::Flow f;
      f.id = FlowId{id};
      f.spec.size = 1e9;
      f.remaining = 1e9;
      f.weight = 1.0;
      f.rate_cap = gbps(0.1 * (k + 1));
      f.path = p.routes->path(*p.routes->route(
          p.fabric.hosts[2 * j], p.fabric.hosts[2 * j + 1], id));
      ++id;
      p.flows.push_back(std::move(f));
    }
  }
  for (auto& f : p.flows) p.active.push_back(&f);
  benchutil::overcommit_source_ports(p.fabric.topo, p.active);
  return p;
}

void run_fill(benchmark::State& state, Population& p) {
  netsim::RateAllocator alloc(&p.fabric.topo);
  alloc.allocate(p.active);  // warm the arenas
  for (auto _ : state) {
    alloc.allocate(p.active);
    benchmark::DoNotOptimize(p.active);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.flows.size()));
}

void BM_ComponentFill(benchmark::State& state) {
  Population p = make_components(static_cast<int>(state.range(0)), 32);
  run_fill(state, p);
}
BENCHMARK(BM_ComponentFill)->ArgName("components")->Arg(64)->Arg(256);

void BM_ServeShapedFill(benchmark::State& state) {
  constexpr int kFlowsPerComponent = 4;
  Population p = make_components(
      static_cast<int>(state.range(0)) / kFlowsPerComponent,
      kFlowsPerComponent);
  run_fill(state, p);
}
BENCHMARK(BM_ServeShapedFill)
    ->ArgName("flows")
    ->RangeMultiplier(2)
    ->Range(32, 1024);

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
  // Machine shape: the host's hardware thread count.
  benchmark::AddCustomContext(
      "echelon_hardware_concurrency",
      echelon::benchutil::hardware_concurrency_context());
  // Behavioural fingerprint of the hot path (allocator pass counts,
  // reallocation counts, ...) so BENCH_hotpath.json timing shifts can be
  // cross-read against scheduler behaviour (bench_util.hpp).
  benchmark::AddCustomContext("echelon_metrics",
                              echelon::benchutil::hotpath_metrics_context());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
