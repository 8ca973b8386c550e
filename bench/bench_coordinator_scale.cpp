// EXT-C: coordinator scalability (paper §5).
//
// Two parts:
//   1. google-benchmark microbenchmarks of one scheduler control() pass as
//      the active-flow population grows -- the latency every arrival or
//      departure pays under per-event scheduling.
//   2. a table comparing per-event vs interval vs interval+iterative-reuse
//      coordination on a multi-iteration DP job: heuristic runs, reuse
//      hits, and the tardiness cost of scheduling lag. This quantifies the
//      paper's proposal to "maintain the scheduling decision throughout the
//      DDLT lifetime leveraging the iterative nature of DDLT jobs".

#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "echelon/echelon_madd.hpp"
#include "echelon/registry.hpp"
#include "netsim/simulator.hpp"
#include "runtime/coordinator.hpp"
#include "topology/builders.hpp"
#include "workload/dp.hpp"

namespace {

using namespace echelon;

// --- part 1: control-pass latency -------------------------------------------

void BM_EchelonMaddControlPass(benchmark::State& state) {
  const int n_flows = static_cast<int>(state.range(0));
  const int hosts = 32;
  auto fabric = topology::make_big_switch(hosts, gbps(100));
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  ef::EchelonMaddScheduler sched(&reg);

  // Population: n_flows across n_flows/8 EchelonFlows of 8 members each.
  Rng rng(5);
  std::vector<netsim::Flow> flows;
  flows.reserve(static_cast<std::size_t>(n_flows));
  const int per_ef = 8;
  for (int i = 0; i < n_flows; ++i) {
    if (i % per_ef == 0) {
      reg.create(JobId{0}, ef::Arrangement::pipeline(per_ef, 0.01));
    }
    const auto src = rng.uniform_int(static_cast<std::uint64_t>(hosts));
    auto dst = rng.uniform_int(static_cast<std::uint64_t>(hosts));
    if (dst == src) dst = (dst + 1) % static_cast<std::uint64_t>(hosts);
    netsim::Flow f;
    f.id = FlowId{static_cast<std::uint64_t>(i)};
    f.spec.group = EchelonFlowId{static_cast<std::uint64_t>(i / per_ef)};
    f.spec.index_in_group = i % per_ef;
    f.spec.size = rng.uniform(1e6, 1e8);
    f.remaining = f.spec.size;
    f.path = sim.routes().path(
        *sim.routes().route(fabric.hosts[src], fabric.hosts[dst],
                            static_cast<std::uint64_t>(i)));
    reg.get(f.spec.group)
        .note_start(f.spec.index_in_group, f.id, f.spec.size,
                    0.001 * static_cast<double>(i % per_ef));
    flows.push_back(std::move(f));
  }
  std::vector<netsim::Flow*> active;
  for (auto& f : flows) active.push_back(&f);

  for (auto _ : state) {
    sched.control(sim, active);
    benchmark::DoNotOptimize(active);
  }
  state.SetItemsProcessed(state.iterations() * n_flows);
}
BENCHMARK(BM_EchelonMaddControlPass)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

// --- part 2: coordination-mode comparison -----------------------------------

void coordination_mode_table() {
  std::cout << "\n=== EXT-C(2): coordination modes on a 6-iteration DP job "
               "===\n\n";
  Table t({"mode", "heuristic runs", "reuse hits", "deferred flows",
           "makespan (s)", "sum tardiness (s)"});

  struct Mode {
    std::string name;
    runtime::CoordinatorConfig cfg;
  };
  const std::vector<Mode> modes = {
      {"per-event", {}},
      {"interval 5ms",
       {.mode = runtime::SchedulingMode::kInterval, .interval = 5e-3}},
      {"interval 5ms + reuse",
       {.mode = runtime::SchedulingMode::kInterval,
        .interval = 5e-3,
        .iterative_reuse = true}},
  };
  for (const Mode& mode : modes) {
    auto fabric = topology::make_big_switch(4, gbps(25));
    netsim::Simulator sim(&fabric.topo);
    runtime::Coordinator coord(&sim, mode.cfg);
    sim.set_scheduler(&coord);
    const auto placement = workload::make_placement(sim, fabric.hosts);
    const auto job = workload::generate_dp_allreduce(
        {.model = workload::make_transformer(6, 2048, 256, 16),
         .gpu = workload::a100(),
         .buckets = 4,
         .iterations = 6},
        placement, coord.registry(), JobId{0});
    netsim::WorkflowEngine engine(&sim, &job.workflow);
    engine.launch(0.0);
    const SimTime makespan = sim.run();
    t.add_row({mode.name, std::to_string(coord.heuristic_runs()),
               std::to_string(coord.reuse_hits()),
               std::to_string(coord.deferred_flows()),
               Table::num(makespan, 4),
               Table::num(coord.registry().total_tardiness(), 4)});
  }
  t.print(std::cout);
  std::cout << "\nexpected shape: interval scheduling slashes heuristic runs "
               "at some tardiness\ncost; iterative reuse recovers most of "
               "the loss by serving repeat signatures\nfrom cache instead of "
               "parking them.\n";
}

}  // namespace

int main(int argc, char** argv) {
  // When machine-readable output is requested (trajectory tracking, e.g.
  // BENCH_hotpath.json), emit only the google-benchmark report: the
  // coordination table would corrupt the JSON stream.
  bool machine_readable = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--benchmark_format", 0) == 0 && arg != "--benchmark_format=console") {
      machine_readable = true;
    }
  }
  // Non-Release numbers must never be mistaken for baselines: warn on
  // stderr and tag the (machine-readable) context so BENCH_hotpath.json
  // regeneration scripts can reject them.
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
  benchmark::RunSpecifiedBenchmarks();
  if (!machine_readable) coordination_mode_table();
  return 0;
}
