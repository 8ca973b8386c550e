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
#include "workload/dp.hpp"

int main() {
  using namespace echelon;
  using namespace echelon::workload;

  std::cout << "=== FIG4: Data Parallelism (AllReduce and PS) ===\n\n";

  const ModelSpec model = make_transformer(8, 2048, 256, 16);
  const GpuSpec gpu = a100();

  std::cout << "-- DP-AllReduce (ring), 4 ranks, 4 gradient buckets --\n";
  Table ar({"scheduler", "steady iter (s)", "GPU idle", "sum tardiness"});
  for (const std::string which : {"fair", "coflow", "echelonflow"}) {
    const auto r = benchutil::run_single_job(
        which, 4, gbps(25),
        [&](netsim::Simulator&, const workload::Placement& p,
            ef::Registry& reg) {
          return generate_dp_allreduce(
              {.model = model, .gpu = gpu, .buckets = 4, .iterations = 3}, p,
              reg, JobId{0});
        });
    ar.add_row({which, Table::num(r.steady_iteration(), 4),
                Table::num(100.0 * r.mean_idle_fraction, 1) + "%",
                Table::num(r.total_tardiness, 4)});
  }
  ar.print(std::cout);

  std::cout << "\n-- DP-PS, 4 workers + 1 PS, 4 gradient buckets --\n";
  Table ps({"scheduler", "steady iter (s)", "GPU idle", "sum tardiness"});
  for (const std::string which : {"fair", "coflow", "echelonflow"}) {
    // PS placement: 4 worker hosts + PS on the 5th.
    auto fabric = topology::make_big_switch(5, gbps(25));
    netsim::Simulator sim(&fabric.topo);
    ef::Registry registry;
    registry.attach(sim);
    std::unique_ptr<netsim::NetworkScheduler> sched;
    if (which == "coflow") {
      sched = std::make_unique<ef::CoflowMaddScheduler>();
    } else if (which == "echelonflow") {
      sched = std::make_unique<ef::EchelonMaddScheduler>(&registry);
    }
    if (sched) sim.set_scheduler(sched.get());
    std::vector<NodeId> worker_hosts(fabric.hosts.begin(),
                                     fabric.hosts.end() - 1);
    const auto placement = make_placement(sim, worker_hosts);
    const WorkerId psw = sim.add_worker(fabric.hosts.back());
    const auto job = generate_dp_ps(
        {.model = model, .gpu = gpu, .buckets = 4, .iterations = 3},
        placement, fabric.hosts.back(), psw, registry, JobId{0});
    netsim::WorkflowEngine engine(&sim, &job.workflow);
    engine.launch(0.0);
    sim.run();
    const SimTime steady =
        engine.node_finish(job.iteration_end[2]) -
        engine.node_finish(job.iteration_end[1]);
    double idle = 0.0;
    for (const WorkerId w : placement.workers) {
      idle += sim.worker(w).idle_fraction();
    }
    ps.add_row({which, Table::num(steady, 4),
                Table::num(100.0 * idle / 4.0, 1) + "%",
                Table::num(registry.total_tardiness(), 4)});
  }
  ps.print(std::cout);
  std::cout << "\nexpected shape: coflow == echelonflow (DP is "
               "Coflow-compliant, Table 1);\nboth >= fair only marginally, "
               "since a lone DP job has little cross-bucket contention.\n";
  return 0;
}
