// Tests for trace generation and the cluster experiment runner.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "cluster/experiment.hpp"
#include "cluster/trace.hpp"
#include "faultsim/fault_plan.hpp"

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
        SchedulerKind::kEchelonMadd, SchedulerKind::kCoordinator}) {
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

TEST(Experiment, CoordinatorIntervalModeReportsControlStats) {
  const auto jobs = small_trace();
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kCoordinator;
  cfg.hosts = 8;
  cfg.coordinator.mode = runtime::SchedulingMode::kInterval;
  cfg.coordinator.interval = 1e-3;
  cfg.coordinator.iterative_reuse = true;
  const auto r = run_experiment(jobs, cfg);
  EXPECT_EQ(r.jobs.size(), jobs.size());
  EXPECT_GT(r.heuristic_runs, 0u);
  // Interval mode must run the heuristic less often than the per-event
  // control-invocation count.
  EXPECT_LT(r.heuristic_runs, r.control_invocations);
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
  add(r.heuristic_runs);
  add(r.reuse_hits);
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

// small_trace() with its arrival times reversed: job 0 arrives last, so the
// first arrival event builds every job's workflow at once.
std::vector<JobSpec> reversed_arrival_trace() {
  auto jobs = small_trace();
  std::vector<SimTime> arrivals;
  for (const JobSpec& j : jobs) arrivals.push_back(j.arrival);
  std::reverse(arrivals.begin(), arrivals.end());
  for (std::size_t j = 0; j < jobs.size(); ++j) jobs[j].arrival = arrivals[j];
  return jobs;
}

TEST(Experiment, ArrivalsOutOfIndexOrderMatchRecordedDigest) {
  // Digests recorded with every workflow built before the run: building at
  // arrival must keep EchelonFlowIds, WorkerIds and event order, so results
  // match to the bit even when arrivals are not sorted by job index.
  const auto jobs = reversed_arrival_trace();
  const std::pair<SchedulerKind, std::uint64_t> cases[] = {
      {SchedulerKind::kEchelonMadd, 0x4fc02f851ea036d7ull},
      {SchedulerKind::kCoordinator, 0x3d18e71d0d45072aull},
  };
  for (const auto& [kind, expected] : cases) {
    ExperimentConfig cfg;
    cfg.scheduler = kind;
    cfg.hosts = 8;
    const ExperimentResult r = run_experiment(jobs, cfg);
    EXPECT_EQ(result_digest(r), expected)
        << to_string(kind) << " 0x" << std::hex << result_digest(r);
    EXPECT_EQ(r.peak_live_workflows, jobs.size()) << to_string(kind);
  }
}

// The interval Coordinator's heuristic-run and reuse-hit counts, pinned with
// the rest of the result: its churn rule decides which boundaries re-run.
TEST(Experiment, IntervalCoordinatorMatchesRecordedDigest) {
  const auto jobs = small_trace();
  const std::pair<bool, std::uint64_t> cases[] = {
      {false, 0x315b385d989831f3ull},
      {true, 0x0ffa0e4a708ce290ull},
  };
  for (const auto& [reuse, expected] : cases) {
    ExperimentConfig cfg;
    cfg.scheduler = SchedulerKind::kCoordinator;
    cfg.hosts = 8;
    cfg.coordinator.mode = runtime::SchedulingMode::kInterval;
    cfg.coordinator.interval = 1e-3;
    cfg.coordinator.iterative_reuse = reuse;
    const ExperimentResult r = run_experiment(jobs, cfg);
    EXPECT_EQ(result_digest(r), expected)
        << "reuse " << reuse << " 0x" << std::hex << result_digest(r);
  }
}

// small_trace()'s shape with 3- and 5-rank jobs: packed onto a 16-host
// leaf-spine, some jobs straddle the two leaves and cross the spines.
std::vector<JobSpec> straddling_trace() {
  TraceConfig cfg = small_trace_config();
  cfg.rank_choices = {3, 5};
  return generate_trace(cfg);
}

// A leaf-spine uplink pair dies and returns mid-run: flows crossing it are
// rerouted (or parked) and the interval Coordinator sees the churn.
TEST(Experiment, IntervalCoordinatorUnderLinkFaultMatchesRecordedDigest) {
  faultsim::FaultPlan plan;
  // Links 0 and 1 are leaf0 <-> spine0 (make_leaf_spine adds uplinks first).
  for (const std::uint64_t link : {0ull, 1ull}) {
    plan.events.push_back({0.5, faultsim::FaultKind::kLinkDown, link, 1.0});
    plan.events.push_back({0.7, faultsim::FaultKind::kLinkUp, link, 1.0});
  }
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kCoordinator;
  cfg.fabric = FabricKind::kLeafSpine;
  cfg.hosts = 16;
  cfg.coordinator.mode = runtime::SchedulingMode::kInterval;
  cfg.coordinator.interval = 1e-3;
  cfg.fault_plan = &plan;
  const ExperimentResult r = run_experiment(straddling_trace(), cfg);
  EXPECT_GT(r.flow_reroutes, 0u);
  EXPECT_EQ(result_digest(r), 0x3ce78fa899240562ull)
      << "0x" << std::hex << result_digest(r);
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
