// Thread-scaling microbenchmark of the parallel per-component water-fill
// (DESIGN.md §10, EXPERIMENTS.md EXT-P).
//
// Three families, all on link-disjoint jobs (one src->dst host pair each);
// every pass water-fills every component. Results are bit-identical by construction at every width, so
// the only thing that can move is time.
//
//   * BM_ParallelAllocFill: 32 capped flows per job -- the staggered-caps
//     progressive-filling worst case from bench_allocator -- at 64 and 256
//     components (2,048 / 8,192 flows), widths 1/2/4/8 of the shared
//     ThreadPool. Far above the work cutoff: the scaling curve
//     (throughput_vs_threads in BENCH_hotpath.json).
//   * BM_ServeShapedFill: what `serve` passes fill -- 4 flows per
//     component, one equivalence class per flow -- at 32..1,024 flows in
//     total, threads 1 and 2. Below RateAllocator::kMinParallelFillFlows the
//     threads:2 point must cost what threads:1 costs (the pass stays on the
//     calling thread; the `dispatched` counter reads 0); above it the pass
//     dispatches. overhead_parallel_serial in BENCH_hotpath.json tracks the
//     below-cutoff ratio.
//   * BM_PoolDispatch: one empty two-participant ThreadPool::run -- the
//     fixed cost a dispatched pass pays before any fill work, which together
//     with the threads:1 per-flow fill cost above sets the cutoff.
//
// Numbers are only meaningful relative to the machine shape: the JSON
// context records echelon_hardware_concurrency / echelon_pool_participants,
// and tools/check_bench_regression.py skips the thread-scaling gate when a
// fresh run's shape differs from the baseline's.
//
// Emit JSON for trajectory tracking with:
//   bench_parallel_alloc --benchmark_format=json

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/pool.hpp"
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

// args: {components, threads}. threads == 1 exercises the serial path;
// >= 2 dispatches fills onto the shared pool.
void BM_ParallelAllocFill(benchmark::State& state) {
  Population p = make_components(static_cast<int>(state.range(0)), 32);
  const auto threads = static_cast<unsigned>(state.range(1));
  netsim::RateAllocator alloc(&p.fabric.topo);
  alloc.set_parallelism(&ThreadPool::shared(), threads);
  alloc.allocate(p.active);  // warm the arenas
  for (auto _ : state) {
    alloc.allocate(p.active);
    benchmark::DoNotOptimize(p.active);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.flows.size()));
  state.counters["components_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(state.range(0)),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParallelAllocFill)
    ->ArgNames({"components", "threads"})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4})
    ->Args({64, 8})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8});

// args: {flows, threads}. `dispatched` is the fraction of passes the
// allocator handed to the pool (0 below the cutoff, 1 above it).
void BM_ServeShapedFill(benchmark::State& state) {
  constexpr int kFlowsPerComponent = 4;
  Population p = make_components(
      static_cast<int>(state.range(0)) / kFlowsPerComponent,
      kFlowsPerComponent);
  const auto threads = static_cast<unsigned>(state.range(1));
  netsim::RateAllocator alloc(&p.fabric.topo);
  alloc.set_parallelism(&ThreadPool::shared(), threads);
  alloc.allocate(p.active);  // warm the arenas
  const std::uint64_t before = ThreadPool::shared().dispatches();
  for (auto _ : state) {
    alloc.allocate(p.active);
    benchmark::DoNotOptimize(p.active);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.flows.size()));
  state.counters["dispatched"] =
      static_cast<double>(ThreadPool::shared().dispatches() - before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_ServeShapedFill)
    ->ArgNames({"flows", "threads"})
    ->ArgsProduct({{32, 64, 128, 256, 512, 1024}, {1, 2}});

void BM_PoolDispatch(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  ThreadPool& pool = ThreadPool::shared();
  for (auto _ : state) {
    pool.run(threads, threads, [](unsigned, std::size_t) {});
  }
}
BENCHMARK(BM_PoolDispatch)->ArgName("threads")->Arg(2);

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
  // Machine shape: thread-scaling numbers are only comparable between
  // identically-shaped hosts (tools/check_bench_regression.py checks this).
  benchmark::AddCustomContext(
      "echelon_hardware_concurrency",
      echelon::benchutil::hardware_concurrency_context());
  benchmark::AddCustomContext("echelon_pool_participants",
                              echelon::benchutil::pool_participants_context());
  // Behavioural fingerprint of the hot path (allocator cache hit rate,
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
