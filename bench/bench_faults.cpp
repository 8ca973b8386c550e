// EXT-N: scheduling under deterministic fault injection (DESIGN.md §8).
//
// The paper motivates EchelonFlow with training jobs that share "a highly
// dynamic network" (§1) and with recalibration after members fall behind
// (Fig. 6). This bench replays seeded FaultPlans -- link outages, brownouts,
// compute stragglers, whole-node failures -- against a multi-job trace on
// the oversubscribed leaf-spine fabric (two spines, so a severed uplink has
// an alternate path and the injector's reroute logic is exercised, not just
// park/retry) and reports how each scheduler degrades.
//
// Repro: see EXPERIMENTS.md EXT-N; the CLI equivalent is
//   echelonflow_cli cluster --chaos N --chaos-seed S [--fault-plan FILE]

#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/experiment.hpp"
#include "cluster/trace.hpp"
#include "common/table.hpp"
#include "faultsim/fault_plan.hpp"
#include "topology/builders.hpp"

namespace {

using namespace echelon;

struct Scenario {
  std::string name;
  faultsim::ChaosProfile profile;  // counts all zero => fault-free baseline
  faultsim::FaultPlan scripted;    // non-empty => used instead of the profile
};

}  // namespace

int main() {
  benchutil::warn_if_not_release();

  cluster::TraceConfig tcfg;
  tcfg.num_jobs = 8;
  tcfg.seed = 42;
  tcfg.iterations = 2;
  tcfg.arrival_rate = 3.0;
  const auto jobs = cluster::generate_trace(tcfg);

  const int hosts = 16;
  const BytesPerSec port = gbps(25);
  const double oversub = 2.0;

  // The fabric run_experiment builds, used here for chaos target selection.
  const auto fabric = cluster::build_fabric(cluster::FabricKind::kLeafSpine,
                                            hosts, port, oversub);
  std::size_t workers = 0;
  for (const auto& j : jobs) workers += static_cast<std::size_t>(j.ranks);

  const SimTime horizon = 1.5;
  std::vector<Scenario> scenarios;
  scenarios.push_back({"fault-free", {}});
  {
    faultsim::ChaosProfile p;
    p.seed = 7;
    p.horizon = horizon;
    p.brownouts = 6;
    scenarios.push_back({"brownouts", p});
  }
  {
    faultsim::ChaosProfile p;
    p.seed = 7;
    p.horizon = horizon;
    p.link_faults = 6;
    scenarios.push_back({"link outages", p});
  }
  {
    faultsim::ChaosProfile p;
    p.seed = 7;
    p.horizon = horizon;
    p.node_faults = 2;
    p.stragglers = 4;
    scenarios.push_back({"nodes+stragglers", p});
  }
  {
    faultsim::ChaosProfile p;
    p.seed = 7;
    p.horizon = horizon;
    p.link_faults = 4;
    p.brownouts = 4;
    p.stragglers = 4;
    p.node_faults = 1;
    scenarios.push_back({"mixed chaos", p});
  }
  {
    // Scripted uplink flaps: alternately sever one spine's leaf->spine
    // direction while the other spine stays up, all run long. Any cross-leaf
    // flow caught mid-flight has an alternate path through the surviving
    // spine, so it must *reroute* rather than park. Link ids follow
    // make_leaf_spine order: leaf0-spine0 = 0/1, leaf0-spine1 = 2/3,
    // leaf1-spine0 = 20/21, leaf1-spine1 = 22/23.
    Scenario sc;
    sc.name = "uplink flaps";
    using faultsim::FaultKind;
    auto& ev = sc.scripted.events;
    for (int k = 0; 0.1 + 0.3 * k < 3.5; ++k) {
      const SimTime t = 0.1 + 0.3 * k;
      // Spine 1 out for [t, t+0.15), then spine 0 for [t+0.15, t+0.3).
      // Recoveries are scheduled before the next outage at the same instant
      // (plan order is preserved), so one spine is always reachable.
      ev.push_back({t, FaultKind::kLinkDown, 2, 1.0});
      ev.push_back({t, FaultKind::kLinkDown, 22, 1.0});
      ev.push_back({t + 0.15, FaultKind::kLinkUp, 2, 1.0});
      ev.push_back({t + 0.15, FaultKind::kLinkUp, 22, 1.0});
      ev.push_back({t + 0.15, FaultKind::kLinkDown, 0, 1.0});
      ev.push_back({t + 0.15, FaultKind::kLinkDown, 20, 1.0});
      ev.push_back({t + 0.3, FaultKind::kLinkUp, 0, 1.0});
      ev.push_back({t + 0.3, FaultKind::kLinkUp, 20, 1.0});
    }
    scenarios.push_back(std::move(sc));
  }

  const std::vector<cluster::SchedulerKind> kinds = {
      cluster::SchedulerKind::kFairSharing,
      cluster::SchedulerKind::kCoflowMadd,
      cluster::SchedulerKind::kEchelonMadd,
  };

  Table t({"scenario", "scheduler", "mean iter (s)", "tardiness (s)",
           "reroutes", "parks", "abandoned", "downtime (s)"});
  for (const Scenario& sc : scenarios) {
    const faultsim::FaultPlan plan =
        sc.scripted.empty()
            ? faultsim::from_chaos(sc.profile, fabric.topo, workers,
                                   jobs.size())
            : sc.scripted;
    for (const auto kind : kinds) {
      cluster::ExperimentConfig cfg;
      cfg.scheduler = kind;
      cfg.fabric = cluster::FabricKind::kLeafSpine;
      cfg.hosts = hosts;
      cfg.port_capacity = port;
      cfg.oversubscription = oversub;
      if (!plan.empty()) cfg.fault_plan = &plan;
      const auto r = cluster::run_experiment(jobs, cfg);
      t.add_row({sc.name, std::string(cluster::to_string(kind)),
                 Table::num(r.iteration_samples().mean(), 4),
                 Table::num(r.total_tardiness, 3),
                 std::to_string(r.flow_reroutes),
                 std::to_string(r.flow_parks),
                 std::to_string(r.flows_abandoned),
                 Table::num(r.flow_downtime, 4)});
    }
  }
  t.print(std::cout);
  std::cout << "\nfault plans are seeded and deterministic: the same seed "
               "reproduces every row bit-for-bit.\n";
  return 0;
}
