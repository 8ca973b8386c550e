// FIG2: regenerates the paper's Fig. 2 motivating example.
//
// Pipeline-parallel forward phase, 2 workers, 3 micro-batches, 1 s compute
// per micro-batch on each worker, 2B-byte activations over a B-bandwidth
// link. Prints, per scheduling policy, the per-flow finish times, the
// computation finish time, and the per-interval rate allocation timeline
// (the shaded rate boxes of the figure).
//
// Paper values: fair sharing 8.5, Coflow 10, EchelonFlow 8 (optimal); the
// paper's text: "Coflow makes all flows finish simultaneously and is worse
// than naive bandwidth fair sharing."

#include <iostream>
#include <map>
#include <vector>

#include "cluster/stack.hpp"
#include "common/table.hpp"
#include "echelon/registry.hpp"
#include "netsim/simulator.hpp"
#include "netsim/workflow.hpp"
#include "topology/builders.hpp"

namespace {

using namespace echelon;

constexpr int kMicroBatches = 3;

struct RateSample {
  SimTime at;
  std::vector<double> rates;  // per flow, B units
};

struct PanelResult {
  std::string name;
  SimTime comp_finish = 0.0;
  std::vector<SimTime> flow_finish;
  std::vector<RateSample> timeline;
  double tardiness = 0.0;
};

PanelResult run_panel(const std::string& which) {
  auto fabric = topology::make_big_switch(2, 1.0);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry registry;
  registry.attach(sim);

  const auto sched =
      cluster::make_policy(*cluster::scheduler_from_string(which), &registry);
  sim.set_scheduler(sched.get());

  const WorkerId w0 = sim.add_worker(fabric.hosts[0]);
  const WorkerId w1 = sim.add_worker(fabric.hosts[1]);
  const EchelonFlowId ef = registry.create(
      JobId{0}, ef::Arrangement::pipeline(kMicroBatches, 1.0), "fig2");

  netsim::Workflow wf;
  std::vector<netsim::WfNodeId> flows(kMicroBatches);
  std::vector<netsim::WfNodeId> consumer(kMicroBatches);
  netsim::WfNodeId prev_p = 0, prev_c = 0;
  for (int i = 0; i < kMicroBatches; ++i) {
    const auto u = static_cast<std::size_t>(i);
    const auto p =
        wf.add_compute(w0, 1.0, "f.s0.mb" + std::to_string(i));
    flows[u] = wf.add_flow(netsim::FlowSpec{.src = fabric.hosts[0],
                                            .dst = fabric.hosts[1],
                                            .size = 2.0,
                                            .group = ef,
                                            .index_in_group = i},
                           "act" + std::to_string(i));
    consumer[u] = wf.add_compute(w1, 1.0, "f.s1.mb" + std::to_string(i));
    wf.add_dep(p, flows[u]);
    wf.add_dep(flows[u], consumer[u]);
    if (i > 0) {
      wf.add_dep(prev_p, p);
      wf.add_dep(prev_c, consumer[u]);
    }
    prev_p = p;
    prev_c = consumer[u];
  }

  PanelResult r;
  r.name = which;

  // Sample rates after every arrival/departure via a probing timer chain.
  netsim::WorkflowEngine engine(&sim, &wf);
  auto sample = [&](netsim::Simulator& s) {
    RateSample smp;
    smp.at = s.now();
    for (int i = 0; i < kMicroBatches; ++i) {
      const FlowId fid = engine.flow_of(flows[static_cast<std::size_t>(i)]);
      smp.rates.push_back(
          fid.valid() && !s.flow(fid).finished() ? s.flow(fid).rate : 0.0);
    }
    r.timeline.push_back(smp);
  };
  for (double t = 1.0; t <= 8.0; t += 1.0) {
    sim.schedule_at(t + 1e-6, [&sample](netsim::Simulator& s) { sample(s); });
  }

  engine.launch(0.0);
  sim.run();
  r.comp_finish = engine.node_finish(consumer.back());
  for (int i = 0; i < kMicroBatches; ++i) {
    r.flow_finish.push_back(
        engine.node_finish(flows[static_cast<std::size_t>(i)]));
  }
  r.tardiness = registry.get(ef).tardiness();
  return r;
}

}  // namespace

int main() {
  std::cout << "=== FIG2: motivating example (2-worker PP forward, 3 "
               "micro-batches) ===\n"
            << "paper: fair 8.5 | coflow 10 (worse than fair!) | "
               "echelonflow 8 (optimal)\n\n";

  Table summary({"panel", "comp finish (paper)", "comp finish (measured)",
                 "flow finishes", "EchelonFlow tardiness"});
  const std::map<std::string, std::string> paper = {
      {"fair", "8.5"}, {"coflow", "10"}, {"echelonflow", "8"}};

  for (const std::string which : {"fair", "coflow", "echelonflow"}) {
    const PanelResult r = run_panel(which);
    std::string finishes;
    for (const SimTime t : r.flow_finish) {
      finishes += (finishes.empty() ? "" : ", ") + Table::num(t, 1);
    }
    summary.add_row({r.name, paper.at(which), Table::num(r.comp_finish, 1),
                     finishes, Table::num(r.tardiness, 1)});

    std::cout << "-- " << which << ": rate allocation just after t = 1..8 "
              << "(fractions of B)\n";
    Table rates({"t", "f1", "f2", "f3"});
    for (const RateSample& s : r.timeline) {
      rates.add_row({Table::num(s.at, 0), Table::num(s.rates[0], 3),
                     Table::num(s.rates[1], 3), Table::num(s.rates[2], 3)});
    }
    rates.print(std::cout);
    std::cout << "\n";
  }
  summary.print(std::cout);
  return 0;
}
