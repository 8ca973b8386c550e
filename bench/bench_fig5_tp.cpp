// FIG5: regenerates the paper's Fig. 5 -- the Megatron-style tensor-parallel
// workflow -- and evaluates it under the three schedulers.
//
// Per layer: sharded forward compute on all ranks, then an activation
// all-reduce (AS) that barriers the next layer; the backward pass mirrors
// this with gradient all-reduces (GS). Every all-reduce's flows form a
// Coflow (§4 Case I), so like DP this paradigm is Coflow-compliant and the
// bench's expected shape is echelonflow == coflow.

#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "workload/tp.hpp"

int main() {
  using namespace echelon;
  using namespace echelon::workload;

  std::cout << "=== FIG5: Tensor Parallelism (Megatron) ===\n\n";

  const ModelSpec model = make_transformer(6, 2048, 256, 16);
  const GpuSpec gpu = a100();

  // Structure: 2 all-reduces per layer per iteration (AS fwd + GS bwd).
  {
    auto fabric = topology::make_big_switch(4, gbps(25));
    netsim::Simulator sim(&fabric.topo);
    ef::Registry reg;
    const auto p = make_placement(sim, fabric.hosts);
    const auto job = generate_tensor(
        {.model = model, .gpu = gpu, .iterations = 1}, p, reg, JobId{0});
    std::cout << "EchelonFlows per iteration: " << job.echelonflows.size()
              << " (= 2 x " << model.layer_count()
              << " layers), every one Coflow-compliant\n\n";
  }

  Table table({"scheduler", "steady iter (s)", "GPU idle", "sum tardiness"});
  const cluster::JobSpec spec{.paradigm = Paradigm::kTensor,
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
  std::cout << "\nexpected shape: all three near-equal for a lone TP job "
               "(each all-reduce\nbarriers the next layer, so there is no "
               "cross-collective slack to exploit);\nechelonflow == coflow "
               "by Property 2.\n";
  return 0;
}
