// Edge-case and boundary tests across modules: degenerate sizes, single
// micro-batches/buckets, logging controls.

#include <gtest/gtest.h>

#include "common/log.hpp"
#include "echelon/echelon_madd.hpp"
#include "echelon/registry.hpp"
#include "netsim/simulator.hpp"
#include "topology/builders.hpp"
#include "workload/dp.hpp"
#include "workload/pp.hpp"
#include "workload/profiler.hpp"

namespace echelon {
namespace {

TEST(Log, LevelGating) {
  set_log_level(LogLevel::kWarn);
  EXPECT_FALSE(log_enabled(LogLevel::kDebug));
  EXPECT_FALSE(log_enabled(LogLevel::kInfo));
  EXPECT_TRUE(log_enabled(LogLevel::kWarn));
  EXPECT_TRUE(log_enabled(LogLevel::kError));
  set_log_level(LogLevel::kOff);
  EXPECT_FALSE(log_enabled(LogLevel::kError));
  set_log_level(LogLevel::kWarn);  // restore default for other tests
}

TEST(PipelineEdge, SingleMicroBatchDegeneratesToSequential) {
  auto fabric = topology::make_big_switch(2, 1e30);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  const auto placement = workload::make_placement(sim, fabric.hosts);
  const workload::ModelSpec model = workload::make_mlp(2, 32, 2);
  const workload::GpuSpec gpu = workload::unit_gpu();
  const auto job = workload::generate_pipeline(
      {.model = model, .gpu = gpu, .micro_batches = 1, .iterations = 1,
       .optimizer_fraction = 0.0},
      placement, reg, JobId{0});
  netsim::WorkflowEngine eng(&sim, &job.workflow);
  eng.launch(0.0);
  const SimTime t = sim.run();
  EXPECT_TRUE(eng.finished());
  // One micro-batch: pure sequential fwd+bwd across both stages.
  const double expected = gpu.compute_time(model.total_fwd_flops() +
                                           model.total_bwd_flops());
  EXPECT_NEAR(t, expected, 1e-6);
  // Every pipeline EchelonFlow has cardinality 1 and is trivially compliant.
  for (const EchelonFlowId id : job.echelonflows) {
    EXPECT_EQ(reg.get(id).cardinality(), 1);
    EXPECT_TRUE(reg.get(id).arrangement().is_coflow_compliant());
  }
}

TEST(DpEdge, SingleBucketSynchronizesOnce) {
  auto fabric = topology::make_big_switch(2, 1e9);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  const auto placement = workload::make_placement(sim, fabric.hosts);
  const auto job = workload::generate_dp_allreduce(
      {.model = workload::make_mlp(3, 32, 2),
       .gpu = workload::unit_gpu(),
       .buckets = 1,
       .iterations = 1},
      placement, reg, JobId{0});
  EXPECT_EQ(job.echelonflows.size(), 1u);
  netsim::WorkflowEngine eng(&sim, &job.workflow);
  eng.launch(0.0);
  sim.run();
  EXPECT_TRUE(eng.finished());
}

TEST(ProfilerEdge, FiniteProfilingCapacityShiftsOffsets) {
  // Profiling on a *finite* network inflates offsets beyond the zero-comm
  // ideal -- the profiler must honor the capacity parameter.
  auto fabric = topology::make_big_switch(2, 1.0);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  const auto placement = workload::make_placement(sim, fabric.hosts);
  workload::ModelSpec model = workload::make_mlp(2, 32, 2);
  for (auto& l : model.layers) l.activation_bytes = 4.0;  // 4 s at 1 B/s
  const auto job = workload::generate_pipeline(
      {.model = model, .gpu = workload::unit_gpu(), .micro_batches = 2,
       .iterations = 1},
      placement, reg, JobId{0});
  const auto fast =
      workload::profile_job(job, fabric.topo, placement.hosts, 1e30);
  const auto slow =
      workload::profile_job(job, fabric.topo, placement.hosts, 1.0);
  const auto ef_id = job.echelonflows[0].value();
  ASSERT_TRUE(fast.offsets.count(ef_id) && slow.offsets.count(ef_id));
  // Slow-network gaps between releases are at least the fast-network gaps.
  EXPECT_GE(slow.offsets.at(ef_id)[1], fast.offsets.at(ef_id)[1] - 1e-9);
  EXPECT_GT(slow.makespan, fast.makespan);
}

TEST(EchelonMaddEdge, EmptyActiveSetIsNoOp) {
  auto fabric = topology::make_big_switch(2, 10.0);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  ef::EchelonMaddScheduler sched(&reg);
  std::vector<netsim::Flow*> empty;
  sched.control(sim, empty);  // must not crash
  SUCCEED();
}

TEST(EchelonMaddEdge, NullRegistryFallsBackToStartTimes) {
  auto fabric = topology::make_big_switch(2, 10.0);
  netsim::Simulator sim(&fabric.topo);
  ef::EchelonMaddScheduler sched(nullptr);
  sim.set_scheduler(&sched);
  const FlowId id = sim.submit_flow(netsim::FlowSpec{
      .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 10.0,
      .group = EchelonFlowId{7}, .index_in_group = 0});
  sim.run();
  EXPECT_NEAR(sim.flow(id).finish_time, 1.0, 1e-9);
}

TEST(RegistryEdge, IncompleteEchelonFlowExcludedFromObjective) {
  ef::Registry reg;
  const EchelonFlowId id =
      reg.create(JobId{0}, ef::Arrangement::coflow(2), "partial");
  netsim::Flow f;
  f.id = FlowId{0};
  f.spec.group = id;
  f.spec.index_in_group = 0;
  reg.note_arrival(f, 0.0);
  reg.note_departure(f, 5.0);
  // Only 1 of 2 members finished: not complete, not counted in Eq. 4.
  EXPECT_FALSE(reg.get(id).complete());
  EXPECT_DOUBLE_EQ(reg.total_tardiness(), 0.0);
  EXPECT_DOUBLE_EQ(reg.get(id).tardiness(), 5.0);  // running value exists
}

}  // namespace
}  // namespace echelon
