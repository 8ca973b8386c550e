// Event-loop hot-path microbenchmarks (DESIGN.md "Event-loop fast path").
//
// BM_SimLoop measures the steady-state cost of one event iteration in a
// timer-heavy workload with a large population of active flows -- the regime
// the lazy-accounting rewrite targets. 64 self-rescheduling timers fire
// every 100us of simulated time while `range(0)` long-lived flows hold
// rates; no flow completes and the allocation never goes dirty, so the loop
// runs pure event iterations, each an O(log n) completion-heap read.
// (The O(active)-scan reference loop this was once compared against is
// gone; EXPERIMENTS.md EXT-L keeps the historical ratios.) items_processed
// counts fired timer events, so `items_per_second` is the event-loop
// throughput.
//
// BM_Sweep measures cluster::run_sweep throughput on a scheduler-comparison
// grid, serial vs one thread per core (on a single-core container the two
// coincide -- the win shows on real multi-core hosts; determinism is what
// the test suite asserts).

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_util.hpp"
#include "cluster/sweep.hpp"
#include "cluster/trace.hpp"
#include "netsim/simulator.hpp"
#include "topology/builders.hpp"

namespace {

using namespace echelon;
using netsim::Simulator;

constexpr int kTickers = 64;
constexpr double kTickInterval = 1e-4;

struct Ticker {
  // Self-rescheduling timer; the callback captures a single pointer, so the
  // steady-state reschedule is allocation-free.
  std::uint64_t fired = 0;
  void fire(Simulator& s) {
    ++fired;
    Ticker* self = this;
    s.schedule_after(kTickInterval, [self](Simulator& s2) { self->fire(s2); });
  }
};

struct LoopBench {
  topology::BuiltFabric fabric;
  Simulator sim;
  std::vector<Ticker> tickers;
  double t = 0.0;

  explicit LoopBench(int flows)
      : fabric(topology::make_big_switch(16, gbps(100))), sim(&fabric.topo) {
    for (int i = 0; i < flows; ++i) {
      netsim::FlowSpec spec;
      spec.src = fabric.hosts[static_cast<std::size_t>(i) % 16];
      spec.dst = fabric.hosts[static_cast<std::size_t>(i + 1) % 16];
      spec.size = 1e18;  // never completes within the benchmark horizon
      sim.submit_flow(std::move(spec));
    }
    tickers.resize(kTickers);
    for (int k = 0; k < kTickers; ++k) {
      Ticker* tp = &tickers[static_cast<std::size_t>(k)];
      sim.schedule_at(k * kTickInterval / kTickers,
                      [tp](Simulator& s) { tp->fire(s); });
    }
    // Warm-up: rates assigned, pools and heaps at their high-water marks.
    t = 10 * kTickInterval;
    sim.run(t);
  }

  [[nodiscard]] std::uint64_t fired() const {
    std::uint64_t n = 0;
    for (const Ticker& tk : tickers) n += tk.fired;
    return n;
  }
};

void BM_SimLoopLazy(benchmark::State& state) {
  LoopBench b(static_cast<int>(state.range(0)));
  const std::uint64_t fired_before = b.fired();
  // ~640 timer events per benchmark iteration.
  const double slice = kTickInterval / kTickers * 640.0;
  for (auto _ : state) {
    b.t += slice;
    benchmark::DoNotOptimize(b.sim.run(b.t));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(b.fired() - fired_before));
}

BENCHMARK(BM_SimLoopLazy)->RangeMultiplier(4)->Range(64, 8192);

// --- sweep throughput --------------------------------------------------------

std::vector<cluster::SweepPoint> sweep_grid() {
  cluster::TraceConfig tcfg;
  tcfg.num_jobs = 6;
  tcfg.seed = 77;
  tcfg.arrival_rate = 3.0;
  tcfg.iterations = 2;
  tcfg.rank_choices = {2, 4};
  const auto jobs = cluster::generate_trace(tcfg);

  std::vector<cluster::SweepPoint> points;
  for (const auto kind :
       {cluster::SchedulerKind::kFairSharing, cluster::SchedulerKind::kSrpt,
        cluster::SchedulerKind::kCoflowMadd,
        cluster::SchedulerKind::kEchelonMadd}) {
    for (const int hosts : {16, 32}) {
      cluster::ExperimentConfig cfg;
      cfg.scheduler = kind;
      cfg.hosts = hosts;
      cfg.port_capacity = gbps(25);
      points.push_back({jobs, cfg});
    }
  }
  return points;
}

void run_sweep_bench(benchmark::State& state, unsigned threads) {
  const auto points = sweep_grid();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster::run_sweep(points, {.threads = threads}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(points.size()));
}

void BM_SweepSerial(benchmark::State& state) { run_sweep_bench(state, 1); }
void BM_SweepParallel(benchmark::State& state) { run_sweep_bench(state, 0); }

BENCHMARK(BM_SweepSerial);
BENCHMARK(BM_SweepParallel);

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
