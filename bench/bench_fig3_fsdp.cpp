// FIG3: regenerates the paper's Fig. 3 -- the FSDP workflow -- and
// evaluates it under the three schedulers.
//
// Structure check: per iteration the workflow is
//   AG_1 .. AG_N (forward all-gathers) -> F_1 .. F_N
//   AG'_N .. AG'_1 (backward all-gathers) -> B_N .. B_1 -> RS_N .. RS_1
// with the all-gathers forming one EchelonFlow of staggered Coflows
// (Eq. 7) and each reduce-scatter a plain Coflow.
//
// Evaluation: steady-state iteration time, GPU idleness and Eq. 4 tardiness
// under fair sharing / Coflow-MADD / EchelonFlow-MADD. Expected shape: the
// staggered-Coflow treatment (EchelonFlow) meets each layer's compute
// deadline first, so it has the lowest idleness and iteration time;
// Coflow-MADD, which pulls all stages toward a common finish, delays early
// layers and inflates iteration time.

#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "workload/fsdp.hpp"

int main() {
  using namespace echelon;
  using namespace echelon::workload;

  std::cout << "=== FIG3: FSDP (ZeRO-3) workflow under the three schedulers "
               "===\n\n";

  const ModelSpec model = make_transformer(8, 2048, 256, 16);
  const GpuSpec gpu = a100();

  // Structure dump (one iteration, 4 ranks).
  {
    auto fabric = topology::make_big_switch(4, gbps(25));
    netsim::Simulator sim(&fabric.topo);
    ef::Registry reg;
    const auto p = make_placement(sim, fabric.hosts);
    const auto job =
        generate_fsdp({.model = model, .gpu = gpu, .iterations = 1}, p, reg,
                      JobId{0});
    const auto& ag = reg.get(job.echelonflows[0]);
    std::cout << "all-gather EchelonFlow: " << ag.cardinality()
              << " flows in " << 2 * model.layer_count()
              << " staggered Coflow stages (" << ag.arrangement().describe()
              << ")\n"
              << "reduce-scatter Coflows: " << job.echelonflows.size() - 1
              << " (one per layer)\n\n";
    Table stages({"stage", "ideal finish offset (s)"});
    const int per_stage = 4 * 3;
    for (std::size_t s = 0; s < 2 * model.layer_count(); ++s) {
      const std::string name =
          s < model.layer_count()
              ? "AG_" + std::to_string(s + 1)
              : "AG'_" + std::to_string(2 * model.layer_count() - s);
      stages.add_row({name,
                      Table::num(ag.arrangement().offset(
                                     static_cast<int>(s) * per_stage),
                                 4)});
    }
    stages.print(std::cout);
    std::cout << "\n";
  }

  Table table({"scheduler", "steady iter (s)", "GPU idle", "sum tardiness"});
  const cluster::JobSpec spec{.paradigm = Paradigm::kFsdp,
                              .model = model,
                              .gpu = gpu,
                              .ranks = 4,
                              .iterations = 3};
  for (const std::string which : {"fair", "coflow", "echelonflow"}) {
    const auto r = benchutil::run_single_job(
        *cluster::scheduler_from_string(which), gbps(25), spec);
    table.add_row({which, Table::num(r.steady_iteration(), 4),
                   Table::num(100.0 * r.mean_idle_fraction, 1) + "%",
                   Table::num(r.total_tardiness, 4)});
  }
  table.print(std::cout);
  std::cout << "\nexpected shape: echelonflow <= fair < coflow on iteration "
               "time (staggered\nCoflows beat one merged Coflow).\n";
  return 0;
}
