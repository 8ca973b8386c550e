// EXT-J: profiling-accuracy ablation.
//
// EchelonFlow "relies on accurate profiling of the computation time to
// construct the arrangement function" (§5). This bench perturbs every
// compute task by multiplicative jitter while the declared arrangements
// keep the *profiled mean* durations, and measures how the scheduler's
// advantage erodes as reality deviates from the profile.
//
// Expected shape: at zero jitter EchelonFlow holds its full margin over
// Coflow; the margin narrows as jitter grows but degrades gracefully --
// stale deadlines still encode the right *order*, so EchelonFlow should not
// fall below fair sharing even at heavy jitter.

#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace {

using namespace echelon;

double run(const std::string& which, double jitter, std::uint64_t seed) {
  const cluster::JobSpec spec{
      .paradigm = workload::Paradigm::kPipeline,
      .model = workload::make_transformer(8, 4096, 512, 8),
      .gpu = workload::a100(),
      .ranks = 4,
      .iterations = 3,
      .micro_batches = 6,
      .compute_jitter = jitter,
      .jitter_seed = seed};
  return benchutil::run_single_job(*cluster::scheduler_from_string(which),
                                   gbps(10), spec)
      .makespan;
}

}  // namespace

int main() {
  std::cout << "=== EXT-J: arrangement accuracy vs compute jitter (PP job, "
               "5 seeds per cell) ===\n\n";
  Table t({"jitter", "fair (s)", "coflow (s)", "echelonflow (s)",
           "echelon vs fair", "echelon vs coflow"});
  for (const double jitter : {0.0, 0.05, 0.15, 0.30}) {
    Samples fair, coflow, echelon;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      fair.add(run("fair", jitter, seed));
      coflow.add(run("coflow", jitter, seed));
      echelon.add(run("echelonflow", jitter, seed));
    }
    t.add_row({Table::num(100.0 * jitter, 0) + "%",
               Table::num(fair.mean(), 4), Table::num(coflow.mean(), 4),
               Table::num(echelon.mean(), 4),
               Table::num(100.0 * (fair.mean() - echelon.mean()) /
                              fair.mean(),
                          1) + "%",
               Table::num(100.0 * (coflow.mean() - echelon.mean()) /
                              coflow.mean(),
                          1) + "%"});
  }
  t.print(std::cout);
  std::cout << "\nexpected shape: the echelon margin narrows with jitter but "
               "stays >= 0 vs fair\n(ordering knowledge survives inexact "
               "distances).\n";
  return 0;
}
