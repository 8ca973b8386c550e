// FIG4: regenerates the paper's Fig. 4 -- data-parallel workflows with both
// gradient-exchange architectures (ring all-reduce and parameter server).
//
// Per iteration: forward, backward per bucket (reverse layer order), and a
// gradient synchronization per bucket that overlaps the remaining backward
// computation. Each bucket's flows form a Coflow-compliant EchelonFlow
// (§4 Case I), so for a single DP job Coflow-MADD and EchelonFlow-MADD
// should behave near-identically -- the point of this bench -- while both
// beat fair sharing slightly by pacing buckets that barrier later.

#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"

int main() {
  using namespace echelon;
  using namespace echelon::workload;

  std::cout << "=== FIG4: Data Parallelism (AllReduce and PS) ===\n\n";

  const ModelSpec model = make_transformer(8, 2048, 256, 16);
  const GpuSpec gpu = a100();

  // Each panel is one table: the same job under the three schedulers.
  const auto panel = [&](Paradigm paradigm) {
    const cluster::JobSpec spec{.paradigm = paradigm,
                                .model = model,
                                .gpu = gpu,
                                .ranks = 4,
                                .iterations = 3,
                                .buckets = 4};
    Table t({"scheduler", "steady iter (s)", "GPU idle", "sum tardiness"});
    for (const std::string which : {"fair", "coflow", "echelonflow"}) {
      const auto r = benchutil::run_single_job(
          *cluster::scheduler_from_string(which), gbps(25), spec);
      t.add_row({which, Table::num(r.steady_iteration(), 4),
                 Table::num(100.0 * r.mean_idle_fraction, 1) + "%",
                 Table::num(r.total_tardiness, 4)});
    }
    t.print(std::cout);
  };

  std::cout << "-- DP-AllReduce (ring), 4 ranks, 4 gradient buckets --\n";
  panel(Paradigm::kDpAllReduce);
  std::cout << "\n-- DP-PS, 4 workers + 1 PS, 4 gradient buckets --\n";
  panel(Paradigm::kDpPs);
  std::cout << "\nexpected shape: coflow == echelonflow (DP is "
               "Coflow-compliant, Table 1);\nboth >= fair only marginally, "
               "since a lone DP job has little cross-bucket contention.\n";
  return 0;
}
