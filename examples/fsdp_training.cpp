// Example: Fully-Sharded Data Parallelism (ZeRO-3) under EchelonFlow.
//
// Demonstrates the paper's §4 Case III: the per-layer all-gathers of one
// iteration form a single EchelonFlow whose *stages* (Coflows) carry
// staggered ideal finish times (Eq. 7). The example prints each stage's
// ideal vs. actual finish under the EchelonFlow scheduler, showing the
// echelon formation in action, and contrasts the iteration time with the
// Coflow treatment that lumps every all-gather together.
//
// Run: ./fsdp_training

#include <algorithm>
#include <iostream>

#include "cluster/stack.hpp"
#include "common/table.hpp"
#include "netsim/simulator.hpp"
#include "topology/builders.hpp"
#include "workload/fsdp.hpp"

int main() {
  using namespace echelon;
  constexpr int kRanks = 4;

  auto run = [&](bool use_echelon, bool print_stages) {
    auto fabric = topology::make_big_switch(kRanks, gbps(25));
    netsim::Simulator sim(&fabric.topo);
    ef::Registry registry;
    registry.attach(sim);
    const auto sched = cluster::make_policy(
        use_echelon ? cluster::SchedulerKind::kEchelonMadd
                    : cluster::SchedulerKind::kCoflowMadd,
        &registry);
    sim.set_scheduler(sched.get());

    const auto placement = workload::make_placement(sim, fabric.hosts);
    const auto job = workload::generate_fsdp(
        {.model = workload::make_transformer(6, 2048, 256, 16),
         .gpu = workload::a100(),
         .iterations = 1},
        placement, registry, JobId{0});

    netsim::WorkflowEngine engine(&sim, &job.workflow);
    engine.launch(0.0);
    const SimTime makespan = sim.run();

    if (print_stages) {
      // The first EchelonFlow is the all-gather echelon; report per-stage
      // (per-Coflow) ideal vs actual finish.
      const ef::EchelonFlow& ag = registry.get(job.echelonflows[0]);
      const int per_stage = kRanks * (kRanks - 1);
      Table t({"stage", "ideal finish (s)", "actual finish (s)",
               "tardiness (s)"});
      const int stages = ag.cardinality() / per_stage;
      for (int s = 0; s < stages; ++s) {
        SimTime actual = 0.0;
        for (int j = s * per_stage; j < (s + 1) * per_stage; ++j) {
          actual = std::max(actual, ag.members()[static_cast<std::size_t>(j)]
                                        .finish_time);
        }
        const SimTime ideal = *ag.ideal_finish(s * per_stage);
        const std::string name =
            s < stages / 2 ? "AG_" + std::to_string(s)
                           : "AG'_" + std::to_string(stages - 1 - s);
        t.add_row({name, Table::num(ideal, 4), Table::num(actual, 4),
                   Table::num(actual - ideal, 4)});
      }
      t.print(std::cout);
    }
    return makespan;
  };

  std::cout << "Per-stage all-gather echelon under EchelonFlow-MADD:\n";
  const SimTime echelon = run(true, true);
  const SimTime coflow = run(false, false);
  std::cout << "\niteration time: echelonflow = " << echelon
            << " s, coflow = " << coflow << " s ("
            << Table::num(100.0 * (coflow - echelon) / coflow, 1)
            << "% saved)\n";
  return 0;
}
