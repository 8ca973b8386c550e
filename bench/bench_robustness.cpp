// EXT-I: robustness to bandwidth variability.
//
// The paper's scheduler must share the network with "competing training
// jobs" over "a shared, highly dynamic network" (§1). This bench injects
// periodic brownouts -- every port drops to a fraction of its capacity for
// a fixed window, then recovers -- into a pipeline-parallel run and
// measures how each scheduler's iteration time and tardiness degrade.
//
// Expected shape: EchelonFlow's reference-time recalibration (Fig. 6) gives
// delayed members catch-up bandwidth after each brownout, so its relative
// degradation stays at or below the baselines'.

#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"

namespace {

using namespace echelon;

struct Outcome {
  double makespan = 0.0;
  double tardiness = 0.0;
};

Outcome run(const std::string& which, double brownout_fraction,
            Duration period, Duration width) {
  // Periodic brownouts on every port.
  faultsim::FaultPlan plan;
  if (brownout_fraction < 1.0) {
    for (int k = 0; k < 64; ++k) {
      const SimTime down = k * period;
      plan.events.push_back({.at = down,
                             .kind = faultsim::FaultKind::kBrownout,
                             .target = faultsim::kAllLinks,
                             .factor = brownout_fraction});
      plan.events.push_back({.at = down + width,
                             .kind = faultsim::FaultKind::kBrownoutEnd,
                             .target = faultsim::kAllLinks});
    }
  }
  const cluster::JobSpec spec{
      .paradigm = workload::Paradigm::kPipeline,
      .model = workload::make_transformer(8, 4096, 512, 8),
      .gpu = workload::a100(),
      .ranks = 4,
      .iterations = 3,
      .micro_batches = 6};
  // Drains the job and the remaining brownout timers.
  const benchutil::SingleJobResult r = benchutil::run_single_job(
      *cluster::scheduler_from_string(which), gbps(10), spec, &plan);
  // Job completion, not quiesce time (brownout timers outlive the job).
  return {.makespan = r.iteration_finish.back(),
          .tardiness = r.total_tardiness};
}

}  // namespace

int main() {
  std::cout << "=== EXT-I: brownout robustness (PP job; every port drops to "
               "X% for 50 ms each 250 ms) ===\n\n";
  Table t({"scheduler", "clean makespan (s)", "brownout 50% (s)",
           "brownout 10% (s)", "tardiness clean", "tardiness 10%"});
  for (const std::string which : {"fair", "coflow", "echelonflow"}) {
    const Outcome clean = run(which, 1.0, 0.25, 0.05);
    const Outcome half = run(which, 0.5, 0.25, 0.05);
    const Outcome tenth = run(which, 0.1, 0.25, 0.05);
    t.add_row({which, Table::num(clean.makespan, 4),
               Table::num(half.makespan, 4), Table::num(tenth.makespan, 4),
               Table::num(clean.tardiness, 4),
               Table::num(tenth.tardiness, 4)});
  }
  t.print(std::cout);
  std::cout << "\nexpected shape: everyone slows under brownouts; "
               "echelonflow keeps the lowest\nmakespan and tardiness at "
               "every severity (catch-up after recovery).\n";
  return 0;
}
