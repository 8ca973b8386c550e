// Robustness tests: runtime link-capacity changes (degradation/recovery)
// and compute jitter (real runs deviating from the profiled arrangement).

#include <gtest/gtest.h>

#include "echelon/echelon_madd.hpp"
#include "echelon/registry.hpp"
#include "netsim/simulator.hpp"
#include "topology/builders.hpp"
#include "workload/pp.hpp"

namespace echelon {
namespace {

using netsim::FlowSpec;
using netsim::Simulator;

TEST(LinkCapacity, RuntimeChangeAffectsRates) {
  auto fabric = topology::make_big_switch(2, 10.0);
  Simulator sim(&fabric.topo);
  const FlowId id = sim.submit_flow(FlowSpec{
      .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 100.0});
  // Halve every link at t = 4 (60 bytes remain); 60 / 5 = 12 more seconds.
  sim.schedule_at(4.0, [&fabric](Simulator& s) {
    for (std::size_t l = 0; l < fabric.topo.link_count(); ++l) {
      fabric.topo.set_link_capacity(LinkId{l}, 5.0);
    }
    s.invalidate_allocation();
  });
  sim.run();
  EXPECT_NEAR(sim.flow(id).finish_time, 16.0, 1e-9);
}

TEST(LinkCapacity, RecoveryRestoresFullRate) {
  auto fabric = topology::make_big_switch(2, 10.0);
  Simulator sim(&fabric.topo);
  const FlowId id = sim.submit_flow(FlowSpec{
      .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 100.0});
  sim.schedule_at(2.0, [&fabric](Simulator& s) {  // degrade to 2 B/s
    for (std::size_t l = 0; l < fabric.topo.link_count(); ++l) {
      fabric.topo.set_link_capacity(LinkId{l}, 2.0);
    }
    s.invalidate_allocation();
  });
  sim.schedule_at(7.0, [&fabric](Simulator& s) {  // recover
    for (std::size_t l = 0; l < fabric.topo.link_count(); ++l) {
      fabric.topo.set_link_capacity(LinkId{l}, 10.0);
    }
    s.invalidate_allocation();
  });
  sim.run();
  // 20 bytes in [0,2], 10 in [2,7], 70 at full rate: 7 + 7 = 14.
  EXPECT_NEAR(sim.flow(id).finish_time, 14.0, 1e-9);
}

TEST(LinkCapacity, EchelonFlowCatchesUpAfterDegradation) {
  // A transient brownout delays the first member of a pipeline EchelonFlow;
  // the Fig.-6 recalibration gives later members full catch-up bandwidth and
  // the echelon re-forms: all finishes stay exactly one transfer apart.
  auto fabric = topology::make_big_switch(2, 10.0);
  Simulator sim(&fabric.topo);
  ef::Registry reg;
  reg.attach(sim);
  ef::EchelonMaddScheduler sched(&reg);
  sim.set_scheduler(&sched);
  const EchelonFlowId efid =
      reg.create(JobId{0}, ef::Arrangement::pipeline(3, 1.0));
  for (int i = 0; i < 3; ++i) {
    sim.schedule_at(2.0 * i, [&fabric, efid, i](Simulator& s) {
      s.submit_flow(FlowSpec{.src = fabric.hosts[0],
                             .dst = fabric.hosts[1],
                             .size = 20.0,
                             .group = efid,
                             .index_in_group = i});
    });
  }
  // Brownout in [0, 1]: flow 0 crawls at 1 B/s.
  for (std::size_t l = 0; l < fabric.topo.link_count(); ++l) {
    fabric.topo.set_link_capacity(LinkId{l}, 1.0);
  }
  sim.schedule_at(1.0, [&fabric](Simulator& s) {
    for (std::size_t l = 0; l < fabric.topo.link_count(); ++l) {
      fabric.topo.set_link_capacity(LinkId{l}, 10.0);
    }
    s.invalidate_allocation();
  });
  sim.run();
  // Flow 0: 1 byte in [0,1], 19 more at 10 B/s -> 2.9. Flows 1 and 2 are
  // sequential full-rate transfers behind it.
  EXPECT_NEAR(sim.flow(FlowId{0}).finish_time, 2.9, 1e-9);
  EXPECT_NEAR(sim.flow(FlowId{1}).finish_time, 4.9, 1e-9);
  EXPECT_NEAR(sim.flow(FlowId{2}).finish_time, 6.9, 1e-9);
  // Without the brownout the finishes would be 2/4/6 (tardiness 4); the
  // brownout adds only its 0.9 s residue once -- it does not compound
  // across the echelon.
  EXPECT_NEAR(reg.get(efid).tardiness(), 4.9, 1e-9);
}

TEST(Jitter, ZeroJitterIsExact) {
  const Duration d = workload::apply_jitter(2.0, 0.0, nullptr);
  EXPECT_DOUBLE_EQ(d, 2.0);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(workload::apply_jitter(2.0, 0.0, &rng), 2.0);
}

TEST(Jitter, StaysPositiveAndTracksMean) {
  Rng rng(7);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const Duration d = workload::apply_jitter(1.0, 0.2, &rng);
    EXPECT_GT(d, 0.0);
    sum += d;
  }
  EXPECT_NEAR(sum / kN, 1.0, 0.02);
}

TEST(Jitter, PipelineStillDrainsUnderHeavyJitter) {
  auto fabric = topology::make_big_switch(4, 1e8);
  Simulator sim(&fabric.topo);
  ef::Registry reg;
  reg.attach(sim);
  ef::EchelonMaddScheduler sched(&reg);
  sim.set_scheduler(&sched);
  const auto placement = workload::make_placement(sim, fabric.hosts);
  const auto job = workload::generate_pipeline(
      {.model = workload::make_mlp(4, 128, 4),
       .gpu = workload::a100(),
       .micro_batches = 4,
       .iterations = 2,
       .compute_jitter = 0.5,
       .jitter_seed = 99},
      placement, reg, JobId{0});
  netsim::WorkflowEngine engine(&sim, &job.workflow);
  engine.launch(0.0);
  sim.run();
  EXPECT_TRUE(engine.finished());
  for (const EchelonFlowId id : job.echelonflows) {
    EXPECT_TRUE(reg.get(id).complete());
  }
}

TEST(Jitter, DeterministicPerSeed) {
  auto gen = [](std::uint64_t seed) {
    auto fabric = topology::make_big_switch(2, 1e8);
    Simulator sim(&fabric.topo);
    ef::Registry reg;
    const auto placement = workload::make_placement(sim, fabric.hosts);
    const auto job = workload::generate_pipeline(
        {.model = workload::make_mlp(2, 64, 4),
         .gpu = workload::a100(),
         .micro_batches = 2,
         .iterations = 1,
         .compute_jitter = 0.3,
         .jitter_seed = seed},
        placement, reg, JobId{0});
    std::vector<double> durations;
    const netsim::Workflow& wf = job.workflow;
    for (netsim::WfNodeId id = 0; id < wf.size(); ++id) {
      if (wf.node(id).kind == netsim::WfKind::kCompute) {
        durations.push_back(wf.compute(id).duration);
      }
    }
    return durations;
  };
  EXPECT_EQ(gen(5), gen(5));
  EXPECT_NE(gen(5), gen(6));
}

}  // namespace
}  // namespace echelon
