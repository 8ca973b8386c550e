// EXT-D: Property 2 -- Coflow is a special case of EchelonFlow.
//
// On random instances whose every group uses the Eq. 5 (all-equal-ideal)
// arrangement, EchelonFlow-MADD must produce the *same flow finish times*
// as Coflow-MADD (both implement SEBF + MADD + backfill; the tardiness
// metric with a common ideal finish time reduces to coflow completion
// time). Reports the max per-flow finish-time deviation across instances.
//
// Note: groups are released together (same reference instant), where the
// metric map is exact; staggered coflow arrivals age differently under the
// two ranking metrics (CCT vs tardiness), which is the one intended
// behavioural difference -- also measured below.

#include <iostream>
#include <vector>

#include "cluster/stack.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "echelon/registry.hpp"
#include "netsim/simulator.hpp"
#include "topology/builders.hpp"

namespace {

using namespace echelon;

struct Instance {
  struct F {
    std::size_t src, dst;
    Bytes size;
    std::uint64_t group;
    int index;
  };
  int hosts = 8;
  std::vector<F> flows;
  std::vector<int> group_sizes;
};

Instance random_instance(Rng& rng) {
  Instance inst;
  const int groups = 1 + static_cast<int>(rng.uniform_int(4));
  for (int g = 0; g < groups; ++g) {
    const int members = 1 + static_cast<int>(rng.uniform_int(6));
    inst.group_sizes.push_back(members);
    for (int m = 0; m < members; ++m) {
      Instance::F f;
      f.src = rng.uniform_int(static_cast<std::uint64_t>(inst.hosts));
      f.dst = rng.uniform_int(static_cast<std::uint64_t>(inst.hosts));
      if (f.dst == f.src) f.dst = (f.dst + 1) % inst.hosts;
      f.size = rng.uniform(1.0, 50.0);
      f.group = static_cast<std::uint64_t>(g);
      f.index = m;
      inst.flows.push_back(f);
    }
  }
  return inst;
}

// Runs the instance under a scheduler; all flows released at t=0.
std::vector<SimTime> run_instance(const Instance& inst, bool echelon) {
  auto fabric = topology::make_big_switch(inst.hosts, 10.0);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  reg.attach(sim);
  if (echelon) {
    for (const int n : inst.group_sizes) {
      reg.create(JobId{0}, ef::Arrangement::coflow(n));
    }
  }
  const auto sched = cluster::make_policy(
      echelon ? cluster::SchedulerKind::kEchelonMadd
              : cluster::SchedulerKind::kCoflowMadd,
      &reg);
  sim.set_scheduler(sched.get());

  std::vector<FlowId> ids;
  for (const auto& f : inst.flows) {
    ids.push_back(sim.submit_flow(netsim::FlowSpec{
        .src = fabric.hosts[f.src],
        .dst = fabric.hosts[f.dst],
        .size = f.size,
        .group = EchelonFlowId{f.group},
        .index_in_group = f.index}));
  }
  sim.run();
  std::vector<SimTime> finishes;
  for (const FlowId id : ids) finishes.push_back(sim.finish_time(id));
  return finishes;
}

}  // namespace

int main() {
  constexpr int kInstances = 100;
  Rng rng(4242);
  Samples deviations;
  int exact = 0;
  for (int i = 0; i < kInstances; ++i) {
    const Instance inst = random_instance(rng);
    const auto coflow = run_instance(inst, false);
    const auto echelon = run_instance(inst, true);
    double dev = 0.0;
    for (std::size_t j = 0; j < coflow.size(); ++j) {
      dev = std::max(dev, std::abs(coflow[j] - echelon[j]) /
                              std::max(coflow[j], 1e-9));
    }
    deviations.add(dev);
    if (dev < 1e-6) ++exact;
  }

  std::cout << "=== EXT-D: Property 2 -- EchelonFlow(Eq. 5) vs Coflow-MADD ("
            << kInstances << " random instances, simultaneous release) "
            << "===\n\n";
  Table t({"metric", "value"});
  t.add_row({"instances with identical schedules",
             std::to_string(exact) + "/" + std::to_string(kInstances)});
  t.add_row({"mean max relative deviation", Table::num(deviations.mean(), 9)});
  t.add_row({"worst max relative deviation", Table::num(deviations.max(), 9)});
  t.print(std::cout);
  std::cout << "\nexpected: all instances identical -- a Coflow is exactly "
               "an EchelonFlow\nwith the Eq. 5 arrangement.\n";
  return 0;
}
