// Shared helpers for the benchmark binaries: run a single job on a
// cluster::Stack under a scheduler and collect timing/tardiness/idleness.

#pragma once

#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/experiment.hpp"
#include "cluster/job.hpp"
#include "cluster/stack.hpp"
#include "cluster/trace.hpp"
#include "faultsim/fault_plan.hpp"
#include "netsim/simulator.hpp"
#include "obs/metrics.hpp"
#include "topology/builders.hpp"
#include "workload/paradigm.hpp"

// CMake build type baked into every bench binary (see bench/CMakeLists.txt;
// `$<CONFIG>` resolves to CMAKE_BUILD_TYPE for single-config generators).
// The BENCH_hotpath.json baselines were once recorded from a Debug build --
// google-benchmark's own `library_build_type` field only reflects how the
// *library* was compiled, so nothing flagged it. Numbers from unoptimized
// builds must never silently become baselines again: every bench warns
// loudly and tags its JSON context when the build is not Release.
#ifndef ECHELON_BUILD_TYPE
#define ECHELON_BUILD_TYPE "unspecified"
#endif

// Build provenance, also baked in by bench/CMakeLists.txt at configure time:
// the short commit hash and whether the working tree had uncommitted changes.
// Every gbench main records both in its JSON context (`echelon_git_commit` /
// `echelon_git_dirty`) so BENCH_hotpath.json entries can always be traced
// back to the exact code that produced them -- and dirty-tree numbers are
// visibly marked as such. Unknown (no git at configure time) degrades to
// "unknown"/"true": never trustworthy-looking by accident.
#ifndef ECHELON_GIT_COMMIT
#define ECHELON_GIT_COMMIT "unknown"
#endif
#ifndef ECHELON_GIT_DIRTY
#define ECHELON_GIT_DIRTY "true"
#endif

namespace echelon::benchutil {

inline constexpr const char* kBuildType = ECHELON_BUILD_TYPE;
inline constexpr const char* kGitCommit = ECHELON_GIT_COMMIT;
inline constexpr const char* kGitDirty = ECHELON_GIT_DIRTY;

// True only for fully optimized build types suitable for recording
// baselines (Release / RelWithDebInfo / MinSizeRel; RelWithDebInfo is -O2
// but we keep baselines comparable by recording them from Release only).
[[nodiscard]] inline bool release_build() noexcept {
  return std::string_view(kBuildType) == "Release";
}

// Loud stderr banner when the binary was not built for measurement. Returns
// true when a warning was emitted so google-benchmark mains can also tag
// their JSON context (benchmark::AddCustomContext).
inline bool warn_if_not_release() {
  if (release_build()) return false;
  std::fprintf(stderr,
               "*** WARNING: benchmark built with CMAKE_BUILD_TYPE=%s, not "
               "Release.\n*** Timings are NOT comparable to "
               "BENCH_hotpath.json baselines; do not record them.\n",
               kBuildType);
  return true;
}

// --- machine-shape context ---------------------------------------------------
// Every gbench main records the host's hardware concurrency in its JSON
// context (`echelon_hardware_concurrency`), so a baseline can be read
// against the machine it was recorded on.
[[nodiscard]] inline std::string hardware_concurrency_context() {
  return std::to_string(std::thread::hardware_concurrency());
}

// --- metrics context for machine-readable bench output -----------------------
// BENCH_hotpath.json runs carry an `echelon_metrics` context blob: the
// scalar instruments (counters + gauges) of a canonical small cluster run,
// serialized as one JSON object. Timing trajectories can then be cross-read
// against *behaviour* -- a perf win that coincides with a collapsed
// flows-per-class ratio is a different story from one with identical
// counters. Histograms and series are deliberately omitted (too bulky for a
// context string; export them through --metrics-out instead).

// Serializes a snapshot's counters and gauges as a flat JSON object.
// Instrument names are dot-separated identifiers (never need escaping).
inline std::string metrics_snapshot_json(const obs::MetricsSnapshot& snap) {
  std::string out = "{";
  bool first = true;
  const auto append = [&](const std::string& name, const std::string& value) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
    out += value;
  };
  for (const auto& [name, value] : snap.counters) {
    append(name, std::to_string(value));
  }
  char buf[32];
  for (const auto& [name, value] : snap.gauges) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    append(name, buf);
  }
  out += '}';
  return out;
}

// Runs the canonical small hot-path scenario (a short multi-paradigm
// cluster trace under EchelonFlow-MADD) with a metrics registry attached
// and returns its scalar snapshot as JSON. Deterministic: the run is seeded
// and the one host-timing gauge (run.wall_ms) is stripped, so regenerated
// BENCH_hotpath.json context blobs diff clean.
inline std::string hotpath_metrics_context() {
  cluster::TraceConfig tcfg;
  tcfg.num_jobs = 6;
  tcfg.seed = 42;
  tcfg.arrival_rate = 3.0;
  tcfg.iterations = 2;
  const auto jobs = cluster::generate_trace(tcfg);

  obs::MetricsRegistry registry;
  cluster::ExperimentConfig cfg;
  cfg.scheduler = cluster::SchedulerKind::kEchelonMadd;
  cfg.metrics = &registry;
  (void)cluster::run_experiment(jobs, cfg);

  obs::MetricsSnapshot snap = registry.snapshot();
  std::erase_if(snap.gauges,
                [](const auto& g) { return g.first == "run.wall_ms"; });
  return metrics_snapshot_json(snap);
}

// Keeps a water-fill benchmark measuring the fill. RateAllocator::allocate
// returns the caps without filling when every flow is capped and every
// link's cap sum fits its capacity (DESIGN.md §7), which is how capped fill
// populations are usually built. Unless the caps already overcommit a link,
// this lowers each source host's port (every flow's first link) to its cap
// sum / (1 + 1e-9) -- a thousand times the allocator's slack -- so every
// component has a port just short of its caps. The fill still freezes the
// port's flows at their caps round by round; only the last one freezes on
// the saturated port, 1e-9 short of its cap.
inline void overcommit_source_ports(topology::Topology& topo,
                                    std::span<netsim::Flow* const> flows) {
  std::vector<double> link_sum(topo.link_count(), 0.0);
  std::vector<double> port_sum(topo.link_count(), 0.0);
  for (const netsim::Flow* f : flows) {
    if (f->path.empty() || !f->rate_cap) continue;
    for (const LinkId lid : f->path) link_sum[lid.value()] += *f->rate_cap;
    port_sum[f->path.front().value()] += *f->rate_cap;
  }
  for (std::size_t l = 0; l < link_sum.size(); ++l) {
    if (link_sum[l] > topo.link(LinkId{l}).capacity) return;
  }
  for (std::size_t l = 0; l < port_sum.size(); ++l) {
    if (port_sum[l] > 0.0) {
      topo.set_link_capacity(LinkId{l}, port_sum[l] / (1.0 + 1e-9));
    }
  }
}

struct SingleJobResult {
  std::vector<SimTime> iteration_finish;
  SimTime makespan = 0.0;
  double total_tardiness = 0.0;
  double mean_idle_fraction = 0.0;

  [[nodiscard]] Duration steady_iteration() const {
    if (iteration_finish.size() < 2) {
      return iteration_finish.empty() ? 0.0 : iteration_finish[0];
    }
    return iteration_finish.back() -
           iteration_finish[iteration_finish.size() - 2];
  }
};

// Runs `spec` alone on a dedicated big switch -- a host per rank, plus the
// DP-PS server's -- under `scheduler`, replaying `faults` (nullptr =
// fault-free) against it, to quiescence.
inline SingleJobResult run_single_job(
    cluster::SchedulerKind scheduler, BytesPerSec port_capacity,
    const cluster::JobSpec& spec,
    const faultsim::FaultPlan* faults = nullptr) {
  const bool ps = spec.paradigm == workload::Paradigm::kDpPs;
  cluster::Stack stack(scheduler, cluster::FabricKind::kBigSwitch,
                       spec.ranks + (ps ? 1 : 0), port_capacity, 1.0);
  stack.arm_faults(faults);
  const cluster::Seat seat = stack.place(spec);
  cluster::BuiltJob job;
  stack.build(job, spec, seat, JobId{0}, {});
  job.engine->launch(0.0);
  SingleJobResult r;
  r.makespan = stack.sim().run();
  for (const netsim::WfNodeId n : job.generated.iteration_end) {
    r.iteration_finish.push_back(job.engine->node_finish(n));
  }
  r.total_tardiness = stack.registry().total_tardiness();
  double idle = 0.0;
  for (const WorkerId w : seat.placement.workers) {
    idle += stack.sim().worker(w).idle_fraction();
  }
  r.mean_idle_fraction =
      idle / static_cast<double>(seat.placement.workers.size());
  return r;
}

}  // namespace echelon::benchutil
