// Tests for trace generation and the cluster experiment runner.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "cluster/experiment.hpp"
#include "cluster/stack.hpp"
#include "cluster/trace.hpp"
#include "faultsim/fault_plan.hpp"
#include "obs/trace.hpp"

namespace echelon::cluster {
namespace {

TEST(Trace, DeterministicForSeed) {
  TraceConfig cfg;
  cfg.num_jobs = 8;
  cfg.seed = 7;
  const auto a = generate_trace(cfg);
  const auto b = generate_trace(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].paradigm, b[i].paradigm);
    EXPECT_EQ(a[i].ranks, b[i].ranks);
    EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].model.name, b[i].model.name);
  }
}

TEST(Trace, ArrivalsAreNonDecreasing) {
  TraceConfig cfg;
  cfg.num_jobs = 20;
  const auto jobs = generate_trace(cfg);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_GE(jobs[i].arrival, jobs[i - 1].arrival);
  }
  EXPECT_DOUBLE_EQ(jobs[0].arrival, 0.0);
}

TEST(Trace, RespectsRankChoicesAndLayerBounds) {
  TraceConfig cfg;
  cfg.num_jobs = 30;
  cfg.rank_choices = {2, 4};
  cfg.min_layers = 3;
  cfg.max_layers = 5;
  const auto jobs = generate_trace(cfg);
  for (const JobSpec& j : jobs) {
    EXPECT_TRUE(j.ranks == 2 || j.ranks == 4);
    // Pipeline jobs may stretch layers up to `ranks`.
    EXPECT_GE(j.model.layer_count(), 3u);
    EXPECT_LE(j.model.layer_count(),
              std::max<std::size_t>(5u, static_cast<std::size_t>(j.ranks)));
  }
}

// One weight per paradigm: a short list fails loudly instead of never
// drawing the missing paradigm.
TEST(Trace, RejectsFiveParadigmWeights) {
  TraceConfig cfg;
  cfg.paradigm_weights = {4.0, 2.0, 2.0, 1.0, 2.0};
  EXPECT_THROW((void)generate_trace(cfg), std::invalid_argument);
}

TEST(Trace, ParadigmWeightsZeroExcludes) {
  TraceConfig cfg;
  cfg.num_jobs = 30;
  cfg.paradigm_weights = {1.0, 0.0, 0.0, 0.0, 0.0, 0.0};  // DP-AllReduce only
  const auto jobs = generate_trace(cfg);
  for (const JobSpec& j : jobs) {
    EXPECT_EQ(j.paradigm, workload::Paradigm::kDpAllReduce);
  }
}

// Small mixed workload shared by the experiment tests.
TraceConfig small_trace_config() {
  TraceConfig cfg;
  cfg.num_jobs = 5;
  cfg.seed = 3;
  cfg.rank_choices = {2, 4};
  cfg.min_layers = 3;
  cfg.max_layers = 4;
  cfg.min_width = 256;
  cfg.max_width = 512;
  cfg.arrival_rate = 5.0;
  cfg.iterations = 2;
  return cfg;
}

std::vector<JobSpec> small_trace() {
  return generate_trace(small_trace_config());
}

TEST(Experiment, AllJobsCompleteUnderEveryScheduler) {
  const auto jobs = small_trace();
  for (const SchedulerKind kind :
       {SchedulerKind::kFairSharing, SchedulerKind::kCoflowMadd,
        SchedulerKind::kEchelonMadd}) {
    ExperimentConfig cfg;
    cfg.scheduler = kind;
    cfg.hosts = 8;
    const ExperimentResult r = run_experiment(jobs, cfg);
    EXPECT_EQ(r.jobs.size(), jobs.size()) << to_string(kind);
    for (const JobMetrics& jm : r.jobs) {
      EXPECT_GT(jm.jct(), 0.0);
      EXPECT_EQ(jm.iteration_times.size(), 2u);
      for (const Duration t : jm.iteration_times) EXPECT_GT(t, 0.0);
    }
    EXPECT_GT(r.makespan, 0.0);
    EXPECT_GE(r.total_tardiness, 0.0);
    EXPECT_GT(r.control_invocations, 0u);
  }
}

TEST(Experiment, EchelonBeatsOrMatchesBaselinesOnTardiness) {
  const auto jobs = small_trace();
  auto run = [&](SchedulerKind kind) {
    ExperimentConfig cfg;
    cfg.scheduler = kind;
    cfg.hosts = 8;
    return run_experiment(jobs, cfg);
  };
  const auto fair = run(SchedulerKind::kFairSharing);
  const auto echelon = run(SchedulerKind::kEchelonMadd);
  // The Eq. 4 objective: the tardiness-minimizing scheduler should not lose
  // to fair sharing on its own objective (allowing small heuristic slack).
  EXPECT_LE(echelon.total_tardiness, fair.total_tardiness * 1.05 + 1e-6);
}

TEST(Experiment, DeterministicAcrossRuns) {
  const auto jobs = small_trace();
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kEchelonMadd;
  cfg.hosts = 8;
  const auto a = run_experiment(jobs, cfg);
  const auto b = run_experiment(jobs, cfg);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].finish, b.jobs[i].finish);
  }
  EXPECT_DOUBLE_EQ(a.total_tardiness, b.total_tardiness);
}

// Placement refuses a job with more ranks than the fabric has hosts, before
// the run starts, naming both counts.
TEST(Experiment, RejectsJobWiderThanFabric) {
  auto jobs = small_trace();
  ExperimentConfig cfg;
  cfg.hosts = 4;
  jobs[2].ranks = 5;
  try {
    (void)run_experiment(jobs, cfg);
    ADD_FAILURE() << "a 5-rank job ran on a 4-host fabric";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "job needs 5 ranks but the fabric has 4 hosts"),
              std::string::npos)
        << e.what();
  }
  jobs[2].ranks = 4;
  EXPECT_EQ(run_experiment(jobs, cfg).jobs.size(), jobs.size());
}

TEST(Experiment, SrptSchedulerCompletesAllJobs) {
  const auto jobs = small_trace();
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kSrpt;
  cfg.hosts = 8;
  const auto r = run_experiment(jobs, cfg);
  EXPECT_EQ(r.jobs.size(), jobs.size());
  EXPECT_EQ(r.scheduler_name, "srpt");
}

TEST(Experiment, LeafSpineFabricCompletesAllJobs) {
  const auto jobs = small_trace();
  for (const double oversub : {1.0, 4.0}) {
    ExperimentConfig cfg;
    cfg.scheduler = SchedulerKind::kEchelonMadd;
    cfg.fabric = FabricKind::kLeafSpine;
    cfg.oversubscription = oversub;
    cfg.hosts = 16;
    const auto r = run_experiment(jobs, cfg);
    EXPECT_EQ(r.jobs.size(), jobs.size());
    EXPECT_GT(r.makespan, 0.0);
  }
}

TEST(Experiment, OversubscriptionNeverSpeedsThingsUp) {
  const auto jobs = small_trace();
  auto run_oversub = [&](double o) {
    ExperimentConfig cfg;
    cfg.scheduler = SchedulerKind::kFairSharing;
    cfg.fabric = FabricKind::kLeafSpine;
    cfg.oversubscription = o;
    cfg.hosts = 16;
    cfg.port_capacity = gbps(1);  // make the network the bottleneck
    return run_experiment(jobs, cfg).iteration_samples().mean();
  };
  EXPECT_LE(run_oversub(1.0), run_oversub(8.0) + 1e-9);
}

TEST(BuildFabric, BigSwitchAndLeafSpineShapes) {
  const topology::BuiltFabric bs =
      build_fabric(FabricKind::kBigSwitch, 2, gbps(25), 1.0);
  EXPECT_EQ(bs.hosts.size(), 2u);
  // 64 hosts at 25 Gbps, 2:1: 8 leaves x 2 spines, uplinks carry
  // 8 * 25 / (2 * 2) Gbps each.
  const topology::BuiltFabric ls =
      build_fabric(FabricKind::kLeafSpine, 64, gbps(25), 2.0);
  EXPECT_EQ(ls.hosts.size(), 64u);
  double max_capacity = 0.0;
  for (std::size_t l = 0; l < ls.topo.link_count(); ++l) {
    max_capacity = std::max(max_capacity, ls.topo.link(LinkId{l}).capacity);
  }
  EXPECT_DOUBLE_EQ(max_capacity, gbps(50));
}

// True when build_fabric rejects the shape with std::invalid_argument.
bool rejected(FabricKind kind, int hosts, double capacity, double oversub) {
  try {
    (void)build_fabric(kind, hosts, capacity, oversub);
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

constexpr FabricKind kBothFabrics[] = {FabricKind::kBigSwitch,
                                       FabricKind::kLeafSpine};
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(BuildFabric, RejectsTooFewHosts) {
  for (const FabricKind kind : kBothFabrics) {
    for (const int hosts : {1, 0, -8}) {
      EXPECT_TRUE(rejected(kind, hosts, gbps(25), 2.0)) << hosts;
    }
  }
}

TEST(BuildFabric, RejectsLeafSpineHostsNotAMultipleOfEight) {
  // A leaf holds exactly 8 hosts: no count is rounded to fit.
  for (const int hosts : {4, 12, 20}) {
    EXPECT_TRUE(rejected(FabricKind::kLeafSpine, hosts, gbps(25), 2.0))
        << hosts;
    EXPECT_FALSE(rejected(FabricKind::kBigSwitch, hosts, gbps(25), 1.0))
        << hosts;
  }
}

TEST(BuildFabric, RejectsNonPositiveOrNonFiniteCapacity) {
  for (const FabricKind kind : kBothFabrics) {
    for (const double cap : {0.0, -gbps(1), kInf, kNaN}) {
      EXPECT_TRUE(rejected(kind, 16, cap, 2.0)) << cap;
    }
  }
}

TEST(BuildFabric, RejectsNonPositiveOrNonFiniteOversubscription) {
  for (const FabricKind kind : kBothFabrics) {
    for (const double oversub : {0.0, -2.0, kInf, kNaN}) {
      EXPECT_TRUE(rejected(kind, 16, gbps(25), oversub)) << oversub;
    }
  }
}

TEST(Experiment, RejectsFabricItCannotBuild) {
  // One host would run every rank over loopback.
  ExperimentConfig cfg;
  cfg.hosts = 1;
  EXPECT_THROW((void)run_experiment(small_trace(), cfg), std::invalid_argument);
  cfg.hosts = 16;
  cfg.port_capacity = 0.0;
  EXPECT_THROW((void)run_experiment(small_trace(), cfg), std::invalid_argument);
}

// The one name table: every SchedulerKind comes back from its to_string()
// name, every --scheduler name maps to its kind, and kAalo stays last so the
// values snapshots store do not move.
TEST(SchedulerNames, FromStringRoundTripsEveryKind) {
  EXPECT_EQ(static_cast<int>(SchedulerKind::kAalo), 5);
  for (int k = 0; k <= static_cast<int>(SchedulerKind::kAalo); ++k) {
    const auto kind = static_cast<SchedulerKind>(k);
    EXPECT_EQ(scheduler_from_string(to_string(kind)), kind) << k;
  }
  const std::pair<const char*, SchedulerKind> kFlagNames[] = {
      {"fair", SchedulerKind::kFairSharing},
      {"srpt", SchedulerKind::kSrpt},
      {"aalo", SchedulerKind::kAalo},
      {"coflow", SchedulerKind::kCoflowMadd},
      {"sincronia", SchedulerKind::kSincronia},
      {"echelonflow", SchedulerKind::kEchelonMadd}};
  for (const auto& [name, kind] : kFlagNames) {
    EXPECT_EQ(scheduler_from_string(name), kind) << name;
  }
  for (const char* bad :
       {"", "Fair", "echelon", "all", "coflow ", "coordinator"}) {
    EXPECT_EQ(scheduler_from_string(bad), std::nullopt) << bad;
  }
}

TEST(SchedulerNames, MakePolicyBuildsEveryKind) {
  const ef::Registry registry;
  for (int k = 0; k <= static_cast<int>(SchedulerKind::kAalo); ++k) {
    const auto kind = static_cast<SchedulerKind>(k);
    EXPECT_NE(make_policy(kind, &registry), nullptr) << to_string(kind);
  }
}

// Every scheduler counts each control pass it runs, and every pass is full,
// so sched.passes and sched.full_passes both equal the Simulator's control
// invocations.
TEST(StackSchedStats, EveryKindCountsEachControlPass) {
  const auto jobs = small_trace();
  for (int k = 0; k <= static_cast<int>(SchedulerKind::kAalo); ++k) {
    const auto kind = static_cast<SchedulerKind>(k);
    SCOPED_TRACE(to_string(kind));
    Stack stack(kind, FabricKind::kBigSwitch, 8, gbps(25), 1.0);
    std::vector<BuiltJob> built(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      stack.build(built[j], jobs[j], stack.place(jobs[j]), JobId{j}, {});
      built[j].engine->launch(jobs[j].arrival);
    }
    stack.sim().run();
    const std::uint64_t invocations = stack.sim().control_invocations();
    const netsim::SchedStats& stats = stack.scheduler().sched_stats();
    EXPECT_GT(invocations, 0u);
    EXPECT_EQ(stats.passes, invocations);
    EXPECT_EQ(stats.full_passes, invocations);
  }
}

// Stack::place refuses every job its paradigm's generator cannot take,
// naming the field and placing nothing, and places the bounds themselves.
TEST(StackPlace, RejectsJobsItsGeneratorCannotTake) {
  using enum workload::Paradigm;
  struct Case {
    workload::Paradigm paradigm;
    int ranks, iterations, buckets, micro_batches, layers;
    const char* error;  // nullptr: places
  };
  const Case cases[] = {
      {kDpAllReduce, 1, 1, 2, 2, 4,
       "ranks must be >= 2 for DP-AllReduce, got 1"},
      {kExpert, 0, 1, 2, 2, 4, "ranks must be >= 2 for EP-MoE, got 0"},
      {kDpPs, 0, 1, 2, 2, 4, "ranks must be >= 1 for DP-PS, got 0"},
      {kTensor, 2, 0, 2, 2, 4, "iterations must be >= 1, got 0"},
      {kPipeline, 2, 1, 2, 0, 4, "micro_batches must be >= 1, got 0"},
      {kDpAllReduce, 2, 1, 0, 2, 4,
       "buckets must be in [1, 4] (the model's layers), got 0"},
      {kDpPs, 2, 1, 5, 2, 4,
       "buckets must be in [1, 4] (the model's layers), got 5"},
      {kFsdp, 2, 1, 2, 2, 0, "model has no layers"},
      {kPipeline, 5, 1, 2, 2, 4,
       "ranks must be <= the model's 4 layers for PP (one stage per rank), "
       "got 5"},
      {kDpPs, 1, 1, 4, 2, 4, nullptr},
      {kDpAllReduce, 2, 1, 1, 2, 4, nullptr},
      {kPipeline, 4, 1, 2, 1, 4, nullptr},
  };
  for (const Case& c : cases) {
    const JobSpec spec{.paradigm = c.paradigm,
                       .model = workload::make_mlp(c.layers, 256, 8),
                       .gpu = workload::a100(),
                       .ranks = c.ranks,
                       .iterations = c.iterations,
                       .buckets = c.buckets,
                       .micro_batches = c.micro_batches};
    SCOPED_TRACE(spec.describe());
    Stack stack(SchedulerKind::kFairSharing, FabricKind::kBigSwitch, 8,
                gbps(25), 1.0);
    if (c.error == nullptr) {
      EXPECT_NO_THROW((void)stack.place(spec));
      continue;
    }
    try {
      (void)stack.place(spec);
      ADD_FAILURE() << "placed";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), std::string("job ") + c.error);
    }
    EXPECT_EQ(stack.sim().worker_count(), 0u);
    EXPECT_EQ(stack.next_host(), 0u);
  }
}

TEST(Experiment, SingleParadigmTracesRunEachParadigm) {
  for (int p = 0; p < 6; ++p) {
    TraceConfig tcfg;
    tcfg.num_jobs = 2;
    tcfg.seed = 11;
    tcfg.paradigm_weights = {0, 0, 0, 0, 0, 0};
    tcfg.paradigm_weights[static_cast<std::size_t>(p)] = 1.0;
    tcfg.rank_choices = {2};
    tcfg.min_layers = 3;
    tcfg.max_layers = 3;
    tcfg.min_width = 128;
    tcfg.max_width = 128;
    const auto jobs = generate_trace(tcfg);
    ExperimentConfig cfg;
    cfg.scheduler = SchedulerKind::kEchelonMadd;
    cfg.hosts = 4;
    const auto r = run_experiment(jobs, cfg);
    EXPECT_EQ(r.jobs.size(), 2u)
        << workload::to_string(static_cast<workload::Paradigm>(p));
  }
}

// A flow's label lives only in its workflow's label arena and reaches the
// trace as a submit_flow argument: the label the recorder interned for each
// flow is its node's label, for every paradigm.
TEST(StackTrace, FlowLabelsMatchTheirWorkflowNodes) {
  for (int p = 0; p < 6; ++p) {
    SCOPED_TRACE(workload::to_string(static_cast<workload::Paradigm>(p)));
    TraceConfig tcfg;
    tcfg.num_jobs = 1;
    tcfg.seed = 5;
    tcfg.paradigm_weights = {0, 0, 0, 0, 0, 0};
    tcfg.paradigm_weights[static_cast<std::size_t>(p)] = 1.0;
    tcfg.rank_choices = {4};
    tcfg.min_layers = 4;
    tcfg.max_layers = 4;
    const JobSpec spec = generate_trace(tcfg).front();
    Stack stack(SchedulerKind::kEchelonMadd, FabricKind::kBigSwitch, 8,
                gbps(25), 1.0);
    obs::TraceRecorder rec(1u << 20);
    stack.observe(&rec, obs::TraceDetail::kFlow, nullptr);
    BuiltJob job;
    stack.build(job, spec, stack.place(spec), JobId{0}, {});
    job.engine->launch(0.0);
    stack.sim().run();
    ASSERT_TRUE(job.engine->finished());
    const netsim::Workflow& wf = job.generated.workflow;
    std::size_t flows = 0;
    for (netsim::WfNodeId id = 0; id < wf.size(); ++id) {
      if (wf.node(id).kind != netsim::WfKind::kFlow) continue;
      ++flows;
      EXPECT_FALSE(wf.label(id).empty());
      EXPECT_EQ(rec.flow_label(job.engine->flow_of(id).value()), wf.label(id))
          << "node " << id;
    }
    EXPECT_GT(flows, 0u);
  }
}

// FNV-1a over the bits of every deterministic ExperimentResult field the
// comparison below pins (host timings and peak_live_workflows excluded).
std::uint64_t result_digest(const ExperimentResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto add = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const auto add_real = [&add](double v) {
    add(std::bit_cast<std::uint64_t>(v));
  };
  add_real(r.makespan);
  add_real(r.total_tardiness);
  add_real(r.weighted_total_tardiness);
  add(r.control_invocations);
  // Two zero words where the removed coordinator counters were, so the
  // recorded digests keep their values.
  add(0);
  add(0);
  for (const JobMetrics& jm : r.jobs) {
    add(jm.job.value());
    for (const char c : jm.description) add(static_cast<unsigned char>(c));
    add_real(jm.arrival);
    add_real(jm.finish);
    add_real(jm.mean_gpu_idle_fraction);
    for (const Duration t : jm.iteration_times) add_real(t);
  }
  return h;
}

// Digests recorded from the batch driver's own event loop, before
// run_experiment became a ServiceLoop over its trace. One per scheduler,
// folded over a big-switch and a leaf-spine run, each fault-free and under a
// chaos plan that also slows workers and aborts a job. The makespan digested
// is the last job completion: the plan's last recovery events fire after
// it, and the old driver reported those instead.
TEST(Experiment, BatchRunsMatchRecordedDigests) {
  const auto jobs = small_trace();
  std::size_t workers = 0;
  for (const JobSpec& j : jobs) {
    workers += static_cast<std::size_t>(j.ranks) +
               (j.paradigm == workload::Paradigm::kDpPs ? 1 : 0);
  }
  const std::pair<SchedulerKind, std::uint64_t> kRecorded[] = {
      {SchedulerKind::kFairSharing, 0xb0700584bfaeed6dull},
      {SchedulerKind::kSrpt, 0x6e04ffcc85e6da8bull},
      {SchedulerKind::kCoflowMadd, 0xafcf696466810710ull},
      {SchedulerKind::kSincronia, 0x50825108b41a3abfull},
      {SchedulerKind::kEchelonMadd, 0x59fa00819cd6a80dull},
      {SchedulerKind::kAalo, 0x8d65fad08566fb87ull}};
  for (const auto& [kind, recorded] : kRecorded) {
    std::uint64_t h = 0;
    for (const FabricKind fabric :
         {FabricKind::kBigSwitch, FabricKind::kLeafSpine}) {
      const double oversub = fabric == FabricKind::kLeafSpine ? 2.0 : 1.0;
      const topology::BuiltFabric built =
          build_fabric(fabric, 16, gbps(2), oversub);
      faultsim::ChaosProfile p;
      p.seed = 5;
      p.horizon = 2.0;
      p.link_faults = 2;
      p.brownouts = 1;
      p.stragglers = 2;
      p.node_faults = 1;
      p.job_aborts = 1;
      const faultsim::FaultPlan plan =
          faultsim::from_chaos(p, built.topo, workers, jobs.size());
      for (const faultsim::FaultPlan* fault_plan :
           {static_cast<const faultsim::FaultPlan*>(nullptr), &plan}) {
        ExperimentConfig cfg;
        cfg.scheduler = kind;
        cfg.fabric = fabric;
        cfg.hosts = 16;
        cfg.port_capacity = gbps(2);
        cfg.oversubscription = oversub;
        cfg.fault_plan = fault_plan;
        const ExperimentResult r = run_experiment(jobs, cfg);
        h = h * 1099511628211ull ^ result_digest(r);
      }
    }
    EXPECT_EQ(h, recorded) << to_string(kind) << " 0x" << std::hex << h;
  }
}

// A trace runs in arrival order, which must be job order: small_trace() with
// its arrival times reversed (job 0 arrives last) is refused, naming the
// first job that arrives before its predecessor.
TEST(Experiment, ArrivalsOutOfIndexOrderThrow) {
  auto jobs = small_trace();
  std::vector<SimTime> arrivals;
  for (const JobSpec& j : jobs) arrivals.push_back(j.arrival);
  std::reverse(arrivals.begin(), arrivals.end());
  for (std::size_t j = 0; j < jobs.size(); ++j) jobs[j].arrival = arrivals[j];
  ExperimentConfig cfg;
  cfg.hosts = 8;
  try {
    (void)run_experiment(jobs, cfg);
    ADD_FAILURE() << "unsorted arrivals were accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("job 1 arrives before job 0"),
              std::string::npos)
        << e.what();
  }
}

TEST(Experiment, SequentialJobsHoldOneWorkflow) {
  // Each job arrives long after the previous one finished: the arrival
  // frees the finished workflow before building its own.
  auto jobs = small_trace();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].arrival = 1000.0 * static_cast<double>(j);
  }
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kEchelonMadd;
  cfg.hosts = 8;
  const ExperimentResult r = run_experiment(jobs, cfg);
  EXPECT_EQ(r.peak_live_workflows, 1u);
  EXPECT_GE(r.build_ms, 0.0);
  EXPECT_GE(r.wall_ms, 0.0);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_LT(r.jobs[j].finish, jobs[j].arrival + 1000.0);
  }
}

TEST(Experiment, LongTraceHoldsLiveWorkflowsOnly) {
  // The cluster-sweep benchmark's shape: 150 jobs of 8 iterations at 2
  // jobs/s on a 64-host big switch.
  TraceConfig tcfg;
  tcfg.num_jobs = 150;
  tcfg.arrival_rate = 2.0;
  tcfg.iterations = 8;
  const auto jobs = generate_trace(tcfg);
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kEchelonMadd;
  cfg.hosts = 64;
  cfg.port_capacity = gbps(25);
  const ExperimentResult r = run_experiment(jobs, cfg);
  ASSERT_EQ(r.jobs.size(), jobs.size());
  std::printf("peak_live_workflows = %llu of %zu jobs\n",
              static_cast<unsigned long long>(r.peak_live_workflows),
              jobs.size());
  EXPECT_GE(r.peak_live_workflows, 1u);
  EXPECT_LT(r.peak_live_workflows, jobs.size());
  EXPECT_GE(r.build_ms, 0.0);
}

}  // namespace
}  // namespace echelon::cluster
