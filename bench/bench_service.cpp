// EXT-S: online-service-mode benchmarks (DESIGN.md §13).
//
// Three families, all carrying the `svc:` argument tag so
// tools/check_bench_regression.py excludes them from the machine-speed
// calibration median (like `threads:` / `routes:`) while still
// gating them against the baseline:
//
//   1. BM_ServiceSteadyState/svc:J -- the whole online pipeline end to end:
//      J Poisson arrivals streamed through admission (queue-with-cap),
//      incremental placement/launch, completion backfill. The decisions/sec counter is the headline service-mode
//      throughput number.
//   2. BM_ServiceSnapshotSave/svc:J -- serializing a drained J-job loop
//      (journal + generator + verification image). bytes_per_second tracks
//      snapshot cost against state size; the `snapshot_bytes` counter pins
//      the size itself.
//   3. BM_ServiceSnapshotRestore/svc:J -- the full restore path: header +
//      checksum validation, stack and generator rebuild, replay through
//      the step loop, bitwise verification. Replay dominates; this bounds
//      service recovery time.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench_util.hpp"
#include "cluster/trace.hpp"
#include "service/arrivals.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"

namespace {

using namespace echelon;

cluster::TraceConfig service_trace(int jobs) {
  cluster::TraceConfig tc;
  tc.num_jobs = jobs;
  tc.arrival_rate = 8.0;
  tc.seed = 1234;
  tc.iterations = 1;
  tc.min_layers = 4;
  tc.max_layers = 6;
  tc.min_width = 512;
  tc.max_width = 1024;
  tc.rank_choices = {2, 4};
  return tc;
}

std::unique_ptr<service::ServiceLoop> make_loop(int jobs) {
  service::ServiceConfig cfg;
  cfg.hosts = 16;
  cfg.admission.policy = service::AdmissionPolicy::kQueueWithCap;
  cfg.admission.max_running = 8;
  cfg.admission.queue_cap = static_cast<std::uint64_t>(jobs);
  auto loop = std::make_unique<service::ServiceLoop>(cfg);
  loop->set_generator(std::make_unique<service::PoissonArrivalGenerator>(
      service_trace(jobs)));
  return loop;
}

void BM_ServiceSteadyState(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  std::uint64_t decisions = 0;
  double end = 0.0;
  for (auto _ : state) {
    auto loop = make_loop(jobs);
    end = loop->drain();
    decisions += loop->journal().size();
  }
  state.counters["decisions_per_sec"] = benchmark::Counter(
      static_cast<double>(decisions), benchmark::Counter::kIsRate);
  state.counters["sim_end_s"] = end;
}

BENCHMARK(BM_ServiceSteadyState)
    ->ArgNames({"svc"})
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// A drained loop at its terminal step boundary: maximal journal and per-flow
// verification image -- the worst case both directions of the snapshot pay
// for.
void BM_ServiceSnapshotSave(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  auto loop = make_loop(jobs);
  while (loop->step()) {
  }
  std::string bytes;
  for (auto _ : state) {
    bytes = service::save_snapshot(*loop);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.counters["snapshot_bytes"] =
      static_cast<double>(bytes.size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}

BENCHMARK(BM_ServiceSnapshotSave)
    ->ArgNames({"svc"})
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_ServiceSnapshotRestore(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  auto loop = make_loop(jobs);
  while (loop->step()) {
  }
  const std::string bytes = service::save_snapshot(*loop);
  for (auto _ : state) {
    auto restored = service::restore_snapshot(bytes);
    benchmark::DoNotOptimize(restored.get());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}

BENCHMARK(BM_ServiceSnapshotRestore)
    ->ArgNames({"svc"})
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool not_release = echelon::benchutil::warn_if_not_release();
  benchmark::AddCustomContext("echelon_build_type",
                              echelon::benchutil::kBuildType);
  if (not_release) benchmark::AddCustomContext("echelon_unoptimized", "true");
  benchmark::AddCustomContext("echelon_git_commit",
                              echelon::benchutil::kGitCommit);
  benchmark::AddCustomContext("echelon_git_dirty",
                              echelon::benchutil::kGitDirty);
  benchmark::AddCustomContext(
      "echelon_hardware_concurrency",
      echelon::benchutil::hardware_concurrency_context());
  benchmark::AddCustomContext("echelon_metrics",
                              echelon::benchutil::hotpath_metrics_context());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
