// FaultInjector: replays a FaultPlan against a live Simulator (DESIGN.md §8).
//
// The injector owns graceful degradation. When a fault severs an active
// flow's path it re-routes the flow over the surviving fabric when an
// alternate path exists, else *parks* it (Simulator::park_flow) and retries
// with bounded backoff; link recovery triggers opportunistic resumes, and a
// flow whose retry budget is exhausted is abandoned (completes
// unsuccessfully, releasing dependent work). Per-flow interactions are
// recorded as FaultOutcome rows and aggregated into a FaultSummary.
//
// Determinism contract: every injector decision is a function of the
// topology, flow specs/paths, now(), and *ascending-FlowId* sweeps (never
// the internal active-set order, which swap-and-pop retirement perturbs
// mid-instant). An empty plan schedules
// nothing and perturbs nothing: runs with a zero-fault injector are
// byte-identical to runs without one.

#pragma once

#include <cstdint>
#include <vector>

#include "faultsim/fault_plan.hpp"
#include "netsim/simulator.hpp"
#include "obs/trace.hpp"
#include "topology/graph.hpp"

namespace echelon::faultsim {

// Per-flow fault interaction record (cluster trace column source).
struct FaultOutcome {
  FlowId flow;
  JobId job;
  int reroutes = 0;       // paths replaced in place
  int parks = 0;          // times removed from the network
  int retries = 0;        // failed resume attempts
  bool abandoned = false; // retry budget exhausted; flow completed unsuccessfully
  Bytes bytes_lost = 0.0; // undelivered bytes at abandonment
  Duration downtime = 0.0;  // total time spent parked
};

// Run-level aggregate.
struct FaultSummary {
  std::uint64_t events_fired = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t parks = 0;
  std::uint64_t retries = 0;
  std::uint64_t resumes = 0;
  std::uint64_t abandoned = 0;
  Duration downtime = 0.0;
};

class FaultInjector {
 public:
  // `sim`, `topo` and `plan` must outlive the injector; `topo` must be the
  // topology `sim` was built on (the injector mutates link state through it
  // and tells the simulator via notify_topology_change).
  FaultInjector(netsim::Simulator* sim, topology::Topology* topo,
                const FaultPlan* plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Installs the unroutable-flow handler + arrival listener and schedules
  // every plan event. Call once, before Simulator::run. Throws
  // std::invalid_argument, naming the event, when a link or node target is
  // outside the topology; worker targets are checked when their event
  // fires (workers may be added after arming), with the same exception.
  void arm();

  // Observability (DESIGN.md §9): with a sink attached, every applied plan
  // event emits kFaultFired (id = target, ctx = FaultKind, value = factor)
  // and every failed resume attempt emits kFlowRetry (ctx = attempt #).
  // Read-only; nullptr (the default) detaches and costs one branch per
  // site. The Simulator's own park/resume/abandon events cover the rest of
  // the outage lifecycle.
  void set_trace(obs::TraceSink* sink) noexcept { trace_ = sink; }

  [[nodiscard]] const FaultSummary& summary() const noexcept {
    return summary_;
  }
  // Flows that interacted with a fault, ascending FlowId.
  [[nodiscard]] std::vector<FaultOutcome> outcomes() const;

 private:
  enum class ParkReason { kOutage, kAbort };

  struct ParkRecord {
    SimTime parked_at = 0.0;
    ParkReason reason = ParkReason::kOutage;
    int attempts = 0;  // failed resume attempts *this* episode
  };

  // `index` is the event's position in the plan, for diagnostics.
  void apply(const FaultEvent& ev, std::size_t index);
  // Ascending-id sweep over active flows whose path crosses a down link:
  // reroute where possible, park where not.
  void sweep_broken_paths();
  // Ascending-id resume attempt for every outage-parked flow (after a
  // recovery event). Abort-parked flows wait for their job's restart.
  void try_resume_all();
  void park(FlowId id, ParkReason reason);
  void schedule_retry(FlowId id);
  void retry(FlowId id);
  void resume(FlowId id, const topology::Path& path);
  void abandon(FlowId id);
  [[nodiscard]] bool is_parked(FlowId id) const;
  FaultOutcome& outcome(FlowId id);

  netsim::Simulator* sim_;
  topology::Topology* topo_;
  const FaultPlan* plan_;
  obs::TraceSink* trace_ = nullptr;  // null => zero-cost emission branches

  FaultSummary summary_;
  // Dense per-flow outcome table, indexed by FlowId value; `touched` rows
  // are exported by outcomes(). Grown on demand.
  struct Row {
    bool touched = false;
    FaultOutcome data;
  };
  std::vector<Row> rows_;
  // Parked flows, kept sorted ascending (deterministic sweeps).
  std::vector<FlowId> parked_;
  std::vector<ParkRecord> park_records_;  // parallel to rows_ indexing

  // kNodeDown remembers exactly which incident links it took down so
  // kNodeUp restores that set and nothing else (a link independently downed
  // by kLinkDown stays down).
  std::vector<std::vector<LinkId>> node_down_links_;  // indexed by node id
  // Brownout nominal capacities, indexed by link id; NaN = not stored.
  std::vector<double> nominal_caps_;
  // Jobs currently aborted: new flows of these jobs are parked immediately.
  std::vector<std::uint64_t> aborted_jobs_;  // sorted ascending
};

}  // namespace echelon::faultsim
