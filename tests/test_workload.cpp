// Tests for the five training-paradigm workflow generators: structural
// invariants, Table-1 Coflow-compliance, and timing on an infinitely fast
// network (where iteration time must equal pure computation time).

#include <gtest/gtest.h>

#include "echelon/registry.hpp"
#include "netsim/simulator.hpp"
#include "topology/builders.hpp"
#include "workload/dp.hpp"
#include "workload/fsdp.hpp"
#include "workload/pp.hpp"
#include "workload/tp.hpp"

namespace echelon::workload {
namespace {

constexpr double kFast = 1e30;

struct RunResult {
  SimTime makespan = 0.0;
  std::vector<SimTime> iter_finish;
};

// Runs a generated job alone on a big switch of `hosts` ports.
RunResult run_job(const GeneratedJob& job, netsim::Simulator& sim) {
  netsim::WorkflowEngine eng(&sim, &job.workflow);
  eng.launch(0.0);
  RunResult r;
  r.makespan = sim.run();
  EXPECT_TRUE(eng.finished()) << job.description;
  for (const netsim::WfNodeId n : job.iteration_end) {
    r.iter_finish.push_back(eng.node_finish(n));
  }
  return r;
}

TEST(ModelSpec, MlpShapes) {
  const ModelSpec m = make_mlp(4, 100, 8);
  EXPECT_EQ(m.layer_count(), 4u);
  EXPECT_EQ(m.total_params(), 4ull * 100 * 100);
  EXPECT_DOUBLE_EQ(m.total_param_bytes(), 4.0 * 100 * 100 * 4);
  EXPECT_DOUBLE_EQ(m.layers[0].fwd_flops, 2.0 * 8 * 100 * 100);
  EXPECT_DOUBLE_EQ(m.layers[0].bwd_flops, 2.0 * m.layers[0].fwd_flops);
}

TEST(ModelSpec, TransformerShapes) {
  const ModelSpec m = make_transformer(2, 64, 128, 4);
  EXPECT_EQ(m.layer_count(), 2u);
  EXPECT_EQ(m.layers[0].params, 12ull * 64 * 64);
  EXPECT_DOUBLE_EQ(m.layers[0].activation_bytes, 4.0 * 128 * 64 * 2.0);
}

TEST(Gpu, ComputeTimeScalesWithFlops) {
  const GpuSpec g = unit_gpu();
  EXPECT_DOUBLE_EQ(g.compute_time(5.0), 5.0);
  EXPECT_GT(a100().peak_flops, v100().peak_flops);
}

TEST(PartitionLayers, BalancedContiguousCover) {
  const ModelSpec m = make_mlp(10, 64, 4);
  const auto parts = partition_layers(m, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].first, 0u);
  EXPECT_EQ(parts.back().second, 10u);
  for (std::size_t i = 1; i < parts.size(); ++i) {
    EXPECT_EQ(parts[i].first, parts[i - 1].second);  // contiguous
    EXPECT_GT(parts[i].second, parts[i].first);      // non-empty
  }
}

TEST(PartitionLayers, OnePartTakesAll) {
  const ModelSpec m = make_mlp(5, 8, 1);
  const auto parts = partition_layers(m, 1);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], (std::pair<std::size_t, std::size_t>{0, 5}));
}

TEST(PartitionLayers, AsManyPartsAsLayers) {
  const ModelSpec m = make_mlp(4, 8, 1);
  const auto parts = partition_layers(m, 4);
  ASSERT_EQ(parts.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(parts[i], (std::pair<std::size_t, std::size_t>{i, i + 1}));
  }
}

// --- Table 1: paradigm -> arrangement kind -----------------------------------

TEST(Table1, DpAllReduceIsCoflowCompliant) {
  auto fabric = topology::make_big_switch(4, kFast);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  const auto placement = make_placement(sim, fabric.hosts);
  const auto job = generate_dp_allreduce(
      {.model = make_mlp(4, 32, 2), .gpu = unit_gpu(), .buckets = 2,
       .iterations = 1},
      placement, reg, JobId{0});
  ASSERT_FALSE(job.echelonflows.empty());
  for (const EchelonFlowId id : job.echelonflows) {
    EXPECT_TRUE(reg.get(id).arrangement().is_coflow_compliant());
  }
}

TEST(Table1, DpPsIsCoflowCompliant) {
  auto fabric = topology::make_big_switch(5, kFast);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  std::vector<NodeId> worker_hosts(fabric.hosts.begin(),
                                   fabric.hosts.end() - 1);
  const auto placement = make_placement(sim, worker_hosts);
  const WorkerId ps = sim.add_worker(fabric.hosts.back());
  const auto job = generate_dp_ps(
      {.model = make_mlp(4, 32, 2), .gpu = unit_gpu(), .buckets = 2,
       .iterations = 1},
      placement, fabric.hosts.back(), ps, reg, JobId{0});
  for (const EchelonFlowId id : job.echelonflows) {
    EXPECT_TRUE(reg.get(id).arrangement().is_coflow_compliant());
  }
}

TEST(Table1, PipelineIsStaggered) {
  auto fabric = topology::make_big_switch(3, kFast);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  const auto placement = make_placement(sim, fabric.hosts);
  const auto job = generate_pipeline(
      {.model = make_mlp(3, 32, 2), .gpu = unit_gpu(), .micro_batches = 4,
       .iterations = 1},
      placement, reg, JobId{0});
  for (const EchelonFlowId id : job.echelonflows) {
    const auto& a = reg.get(id).arrangement();
    EXPECT_FALSE(a.is_coflow_compliant());
    EXPECT_EQ(a.describe(), "staggered flow finish time");
  }
}

TEST(Table1, TensorIsCoflowCompliant) {
  auto fabric = topology::make_big_switch(4, kFast);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  const auto placement = make_placement(sim, fabric.hosts);
  const auto job = generate_tensor(
      {.model = make_mlp(3, 32, 2), .gpu = unit_gpu(), .iterations = 1},
      placement, reg, JobId{0});
  // One EF per layer per direction: 2 * layers.
  EXPECT_EQ(job.echelonflows.size(), 6u);
  for (const EchelonFlowId id : job.echelonflows) {
    EXPECT_TRUE(reg.get(id).arrangement().is_coflow_compliant());
  }
}

TEST(Table1, FsdpAllGatherIsStaggeredCoflows) {
  auto fabric = topology::make_big_switch(4, kFast);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  const auto placement = make_placement(sim, fabric.hosts);
  const auto job = generate_fsdp(
      {.model = make_mlp(3, 32, 2), .gpu = unit_gpu(), .iterations = 1},
      placement, reg, JobId{0});
  // First EF: the all-gather EchelonFlow (staggered Coflows); the rest are
  // per-layer reduce-scatter Coflows.
  const auto& ag = reg.get(job.echelonflows[0]).arrangement();
  EXPECT_FALSE(ag.is_coflow_compliant());
  EXPECT_EQ(ag.describe(), "staggered Coflow finish time");
  EXPECT_EQ(ag.size(), 2 * 3 * 4 * 3);  // 2L stages x m(m-1) flows
  for (std::size_t i = 1; i < job.echelonflows.size(); ++i) {
    EXPECT_TRUE(
        reg.get(job.echelonflows[i]).arrangement().is_coflow_compliant());
  }
}

// --- structural and timing checks on an infinitely fast network ---------------

TEST(DpAllReduce, InfiniteBandwidthIterationTimeIsComputeBound) {
  auto fabric = topology::make_big_switch(4, kFast);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  const auto placement = make_placement(sim, fabric.hosts);
  const ModelSpec model = make_mlp(4, 32, 2);
  const GpuSpec gpu = unit_gpu();
  const auto job = generate_dp_allreduce(
      {.model = model, .gpu = gpu, .buckets = 2, .iterations = 2},
      placement, reg, JobId{0});
  EXPECT_TRUE(job.workflow.is_acyclic());
  const auto r = run_job(job, sim);
  // Per iteration: fwd + bwd + optimizer (communication is free).
  const double t_iter = gpu.compute_time(model.total_fwd_flops()) * 1.05 +
                        gpu.compute_time(model.total_bwd_flops());
  ASSERT_EQ(r.iter_finish.size(), 2u);
  EXPECT_NEAR(r.iter_finish[0], t_iter, 1e-6);
  EXPECT_NEAR(r.iter_finish[1], 2 * t_iter, 1e-6);
}

TEST(DpAllReduce, AllEchelonFlowsCompleteAndBind) {
  auto fabric = topology::make_big_switch(4, 1e9);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  reg.attach(sim);
  const auto placement = make_placement(sim, fabric.hosts);
  const auto job = generate_dp_allreduce(
      {.model = make_mlp(4, 32, 2), .gpu = unit_gpu(), .buckets = 2,
       .iterations = 2},
      placement, reg, JobId{0});
  run_job(job, sim);
  for (const EchelonFlowId id : job.echelonflows) {
    EXPECT_TRUE(reg.get(id).complete());
    EXPECT_GE(reg.get(id).tardiness(), 0.0);
  }
}

TEST(Pipeline, GpipeBubbleFractionMatchesAnalytic) {
  // Uniform stages, infinitely fast network: the last stage's idle fraction
  // inside one iteration approaches the textbook (p-1)/(m+p-1).
  const int S = 4;
  const int M = 8;
  auto fabric = topology::make_big_switch(S, kFast);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  const auto placement = make_placement(sim, fabric.hosts);
  const ModelSpec model = make_mlp(S, 32, 2);  // one layer per stage
  const auto job = generate_pipeline(
      {.model = model, .gpu = unit_gpu(), .micro_batches = M,
       .iterations = 1, .optimizer_fraction = 0.0},
      placement, reg, JobId{0});
  const auto r = run_job(job, sim);
  // Makespan of one iteration with T per stage-µbatch: (M + S - 1) * 2T
  // (forward fill + drain on both passes; bwd = 2T per µbatch).
  const double T = unit_gpu().compute_time(model.layers[0].fwd_flops);
  const double expected = (M + S - 1) * T + (M + S - 1) * 2 * T;
  EXPECT_NEAR(r.makespan, expected, 1e-6);
  const double busy = M * 3 * T;  // fwd + bwd per µbatch on each worker
  const double bubble = 1.0 - busy / r.makespan;
  // Analytic bubble for combined fwd+bwd pipeline.
  const double analytic = gpipe_bubble_fraction(S, M);
  EXPECT_NEAR(bubble, analytic, 0.02);
}

TEST(Pipeline, OneFOneBCompletesAndIsFasterOrEqual) {
  const int S = 4;
  const int M = 8;
  const ModelSpec model = make_mlp(S, 32, 2);
  auto run_sched = [&](PipelineSchedule sched) {
    auto fabric = topology::make_big_switch(S, kFast);
    netsim::Simulator sim(&fabric.topo);
    ef::Registry reg;
    const auto placement = make_placement(sim, fabric.hosts);
    const auto job = generate_pipeline(
        {.model = model, .gpu = unit_gpu(), .micro_batches = M,
         .iterations = 1, .schedule = sched, .optimizer_fraction = 0.0},
        placement, reg, JobId{0});
    EXPECT_TRUE(job.workflow.is_acyclic());
    netsim::WorkflowEngine eng(&sim, &job.workflow);
    eng.launch(0.0);
    const SimTime t = sim.run();
    EXPECT_TRUE(eng.finished());
    return t;
  };
  const SimTime gpipe = run_sched(PipelineSchedule::kGpipe);
  const SimTime onefb = run_sched(PipelineSchedule::kOneFOneB);
  EXPECT_LE(onefb, gpipe + 1e-9);
}

TEST(Tensor, InfiniteBandwidthMatchesShardedCompute) {
  auto fabric = topology::make_big_switch(4, kFast);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  const auto placement = make_placement(sim, fabric.hosts);
  const ModelSpec model = make_mlp(3, 32, 2);
  const GpuSpec gpu = unit_gpu();
  const auto job = generate_tensor(
      {.model = model, .gpu = gpu, .iterations = 1,
       .optimizer_fraction = 0.0},
      placement, reg, JobId{0});
  const auto r = run_job(job, sim);
  const double expected =
      gpu.compute_time(model.total_fwd_flops() + model.total_bwd_flops()) /
      4.0;  // 1/m of the FLOPs per rank, layers serialized
  EXPECT_NEAR(r.makespan, expected, 1e-6);
}

TEST(Fsdp, InfiniteBandwidthMatchesLayerSerialCompute) {
  auto fabric = topology::make_big_switch(4, kFast);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  const auto placement = make_placement(sim, fabric.hosts);
  const ModelSpec model = make_mlp(3, 32, 2);
  const GpuSpec gpu = unit_gpu();
  const auto job = generate_fsdp(
      {.model = model, .gpu = gpu, .iterations = 1,
       .optimizer_fraction = 0.0},
      placement, reg, JobId{0});
  const auto r = run_job(job, sim);
  const double expected =
      gpu.compute_time(model.total_fwd_flops() + model.total_bwd_flops());
  EXPECT_NEAR(r.makespan, expected, 1e-6);
}

TEST(Generators, RouteHintsStableAcrossIterations) {
  auto fabric = topology::make_big_switch(4, kFast);
  netsim::Simulator sim(&fabric.topo);
  ef::Registry reg;
  const auto placement = make_placement(sim, fabric.hosts);
  const auto job = generate_dp_allreduce(
      {.model = make_mlp(4, 32, 2), .gpu = unit_gpu(), .buckets = 2,
       .iterations = 2},
      placement, reg, JobId{0});
  // Collect route hints of flow nodes per iteration (by label prefix).
  std::vector<std::uint64_t> it0, it1;
  const netsim::Workflow& wf = job.workflow;
  for (netsim::WfNodeId id = 0; id < wf.size(); ++id) {
    if (wf.node(id).kind != netsim::WfKind::kFlow) continue;
    if (wf.label(id).starts_with("it0.")) it0.push_back(wf.flow(id).route_hint);
    if (wf.label(id).starts_with("it1.")) it1.push_back(wf.flow(id).route_hint);
  }
  ASSERT_FALSE(it0.empty());
  EXPECT_EQ(it0, it1);
}

}  // namespace
}  // namespace echelon::workload
