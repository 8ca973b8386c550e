// EXT-C: coordinator scalability (paper §5).
//
// google-benchmark microbenchmarks of one EchelonFlow-MADD control() pass as
// the active-flow population grows -- the latency every arrival or departure
// pays under per-event scheduling.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "echelon/echelon_madd.hpp"
#include "echelon/registry.hpp"
#include "netsim/simulator.hpp"
#include "topology/builders.hpp"

namespace {

using namespace echelon;

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

}  // namespace

int main(int argc, char** argv) {
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
  // Machine shape: the host's hardware thread count.
  benchmark::AddCustomContext(
      "echelon_hardware_concurrency",
      echelon::benchutil::hardware_concurrency_context());
  // Behavioural fingerprint of the hot path (allocator cache hit rate,
  // reallocation counts, ...) so BENCH_hotpath.json timing shifts can be
  // cross-read against scheduler behaviour (bench_util.hpp).
  benchmark::AddCustomContext("echelon_metrics",
                              echelon::benchutil::hotpath_metrics_context());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
