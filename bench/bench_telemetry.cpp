// EXT-T: service-plane telemetry benchmarks (DESIGN.md §15).
//
// All names carry the `tel:` argument tag so tools/check_bench_regression.py
// excludes them from the machine-speed calibration median (like `svc:` /
// `routes:`) while still gating them against the baseline. The
// checker additionally reads the `telemetry_overhead_ratio` counter exported
// by BM_TelemetryOverheadPair and fails if it exceeds the overhead
// tolerance -- the "telemetry costs <= 2%" acceptance gate, measured on one
// machine (no baseline or calibration involved).
//
//   1. BM_TelemetryOverheadPair/tel:2 -- the full online service pipeline
//      drained end to end with telemetry off then on *inside each
//      iteration*, so machine-speed drift between the two sides cancels.
//      Both sides produce bit-identical results (pinned by
//      tests/test_service_telemetry.cpp), so the wall-clock ratio is pure
//      telemetry cost (flusher + SLO tracker + flight recorder, no output
//      attachments), exported as `telemetry_overhead_ratio`.
//   2. BM_ServiceTelemetryOverhead/tel:{0,1} -- the two sides as separate
//      baseline-gated benchmarks (informational for the overhead gate).
//   3. BM_TelemetryFlushOnly/tel:J -- one registry refresh at a flush
//      boundary: the per-flush cost the flusher pays with no outputs.
//   4. BM_TelemetryFlushRender/tel:J -- rendering the Prometheus text
//      exposition from a drained J-job loop's telemetry registry: the
//      per-flush serialization cost an attached PromWriter pays.
//   5. BM_FlightRecord/tel:C -- steady-state cost of one structured event
//      through a capacity-C ring (the per-decision overhead every admit/
//      launch/complete pays while the recorder is live).

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "cluster/trace.hpp"
#include "obs/flightrec.hpp"
#include "service/arrivals.hpp"
#include "service/service.hpp"
#include "service/slo.hpp"

namespace {

using namespace echelon;

cluster::TraceConfig telemetry_trace(int jobs) {
  cluster::TraceConfig tc;
  tc.num_jobs = jobs;
  tc.arrival_rate = 8.0;
  tc.seed = 4321;
  tc.iterations = 1;
  tc.min_layers = 4;
  tc.max_layers = 6;
  tc.min_width = 512;
  tc.max_width = 1024;
  tc.rank_choices = {2, 4};
  return tc;
}

service::TelemetryConfig full_telemetry() {
  service::TelemetryConfig tel;
  tel.metrics_every = 0.1;  // the CLI default when a prom target is given
  tel.flightrec_capacity = 256;
  tel.slo.window = 1.0;
  tel.slo.objectives = {
      service::SloObjective{service::SloKind::kJct, 0.5, 0.1},
      service::SloObjective{service::SloKind::kQueueWait, 0.05, 0.2},
      service::SloObjective{service::SloKind::kTardiness, 0.2, 0.05},
  };
  return tel;
}

std::unique_ptr<service::ServiceLoop> make_loop(int jobs, bool telemetry) {
  service::ServiceConfig cfg;
  cfg.hosts = 16;
  cfg.admission.policy = service::AdmissionPolicy::kQueueWithCap;
  cfg.admission.max_running = 8;
  cfg.admission.queue_cap = static_cast<std::uint64_t>(jobs);
  if (telemetry) cfg.telemetry = full_telemetry();
  auto loop = std::make_unique<service::ServiceLoop>(cfg);
  loop->set_generator(std::make_unique<service::PoissonArrivalGenerator>(
      telemetry_trace(jobs)));
  return loop;
}

// The overhead gate: same 32-job stream drained twice per iteration,
// telemetry off then fully on, timed side by side with a monotonic clock so
// load drift hits both sides equally. tools/check_bench_regression.py reads
// the exported ratio and fails above --overhead-tolerance.
void BM_TelemetryOverheadPair(benchmark::State& state) {
  using clock = std::chrono::steady_clock;
  std::chrono::nanoseconds off_ns{0};
  std::chrono::nanoseconds on_ns{0};
  for (auto _ : state) {
    const auto t0 = clock::now();
    {
      auto off = make_loop(32, /*telemetry=*/false);
      benchmark::DoNotOptimize(off->drain());
    }
    const auto t1 = clock::now();
    {
      auto on = make_loop(32, /*telemetry=*/true);
      benchmark::DoNotOptimize(on->drain());
    }
    const auto t2 = clock::now();
    off_ns += t1 - t0;
    on_ns += t2 - t1;
  }
  state.counters["telemetry_overhead_ratio"] =
      off_ns.count() == 0
          ? 0.0
          : static_cast<double>(on_ns.count()) /
                static_cast<double>(off_ns.count());
}

BENCHMARK(BM_TelemetryOverheadPair)
    ->ArgNames({"tel"})
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// The two sides as separate baseline-gated trajectories (the pair above is
// the overhead gate; these pin the absolute costs against BENCH_hotpath).
void BM_ServiceTelemetryOverhead(benchmark::State& state) {
  const bool telemetry = state.range(0) != 0;
  std::uint64_t flushes = 0;
  for (auto _ : state) {
    auto loop = make_loop(32, telemetry);
    benchmark::DoNotOptimize(loop->drain());
    flushes += loop->telemetry_flushes();
  }
  state.counters["flushes"] = static_cast<double>(flushes) /
                              static_cast<double>(state.iterations());
}

BENCHMARK(BM_ServiceTelemetryOverhead)
    ->ArgNames({"tel"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Pure flush cost: one registry refresh (counters, gauges, per-link gauges,
// flight marker) at a fixed sim time, no output attachments.
void BM_TelemetryFlushOnly(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  auto loop = make_loop(jobs, /*telemetry=*/true);
  loop->drain();
  for (auto _ : state) {
    loop->flush_now();
  }
  state.counters["flushes"] = static_cast<double>(loop->telemetry_flushes());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(BM_TelemetryFlushOnly)
    ->ArgNames({"tel"})
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_TelemetryFlushRender(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  auto loop = make_loop(jobs, /*telemetry=*/true);
  loop->drain();
  std::string text;
  for (auto _ : state) {
    text = loop->prom_exposition();
    benchmark::DoNotOptimize(text.data());
  }
  state.counters["exposition_bytes"] = static_cast<double>(text.size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}

BENCHMARK(BM_TelemetryFlushRender)
    ->ArgNames({"tel"})
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_FlightRecord(benchmark::State& state) {
  obs::FlightRecorder rec(static_cast<std::size_t>(state.range(0)));
  std::uint64_t i = 0;
  for (auto _ : state) {
    rec.record(obs::FlightKind::kLaunch, 0.001 * static_cast<double>(i), i,
               i + 1);
    ++i;
  }
  benchmark::DoNotOptimize(rec.ring_digest());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(BM_FlightRecord)
    ->ArgNames({"tel"})
    ->Arg(256)
    ->Arg(4096)
    ->Unit(benchmark::kNanosecond);

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
