// The EchelonFlow Coordinator (paper §5, Fig. 7).
//
// Receives EchelonFlow requests from agents, runs the scheduling heuristic
// (EchelonFlow-MADD by default), and emits bandwidth allocations. Three
// operating points, matching the paper's scalability discussion:
//
//   * per-event: re-run the heuristic on every flow arrival/departure (the
//     textbook Coflow-scheduler behaviour; most reactive, most expensive).
//   * interval: re-run at fixed scheduling intervals; flows arriving
//     mid-interval wait for the next decision. A boundary re-runs only
//     after churn: an arrival, departure or topology change seen through
//     the scheduler hooks, or a moved registry revision (a late
//     EchelonFlow registration or a newly fixed reference time). With no
//     churn the standing allocation is still valid and the boundary skips.
//   * interval + iterative reuse: additionally cache decisions keyed by
//     each flow's *structural signature* (stable across training
//     iterations); a mid-interval arrival whose signature was seen in a
//     previous iteration is granted its cached rate immediately. This is
//     the paper's "maintain the scheduling decision throughout the DDLT
//     lifetime leveraging the iterative nature of DDLT jobs".

#pragma once

#include <cstdint>
#include <unordered_map>

#include "echelon/echelon_madd.hpp"
#include "echelon/registry.hpp"
#include "netsim/scheduler.hpp"
#include "netsim/simulator.hpp"
#include "obs/trace.hpp"
#include "runtime/api.hpp"

namespace echelon::runtime {

enum class SchedulingMode { kPerEvent, kInterval };

struct CoordinatorConfig {
  SchedulingMode mode = SchedulingMode::kPerEvent;
  Duration interval = 10e-3;       // scheduling interval in kInterval mode
  bool iterative_reuse = false;    // signature-keyed decision cache
  ef::EchelonMaddConfig policy;    // inner heuristic configuration
};

class Coordinator final : public netsim::NetworkScheduler {
 public:
  // Attaches the registry to `sim` for runtime binding; the caller still
  // selects the coordinator as the network scheduler via set_scheduler.
  // Throws std::invalid_argument in kInterval mode when `config.interval`
  // is not finite or is <= 0.
  Coordinator(netsim::Simulator* sim, CoordinatorConfig config = {});

  [[nodiscard]] ef::Registry& registry() noexcept { return registry_; }
  [[nodiscard]] const ef::Registry& registry() const noexcept {
    return registry_;
  }

  // Framework request path (used by agents): declares an EchelonFlow and
  // returns its id for flow tagging.
  EchelonFlowId accept_request(const EchelonFlowRequest& request);

  // Observability (DESIGN.md §9): with a sink attached, every heuristic
  // re-run emits kHeuristicRun (id = run index, ctx = active flows) and
  // every signature-cache grant emits kReuseHit (id = flow, ctx = signature,
  // value = granted rate). Read-only; nullptr (the default) detaches and
  // costs one branch per site.
  void set_trace(obs::TraceSink* sink) noexcept { trace_ = sink; }

  // --- NetworkScheduler -------------------------------------------------------
  void control(netsim::Simulator& sim,
               std::span<netsim::Flow*> active) override;
  // Membership hooks only record churn for the interval policy: the inner
  // heuristic regroups the active set on every pass and keeps no membership
  // state of its own. Parks and resumes arrive here as a departure and an
  // arrival.
  void on_flow_arrival(netsim::Simulator&, const netsim::Flow&) override {
    churn_ = true;
  }
  void on_flow_departure(netsim::Simulator&, const netsim::Flow&) override {
    churn_ = true;
  }
  // Runtime topology changes (fault injection) invalidate the iterative
  // decision cache: a cached rate was granted against path capacities that
  // no longer hold, and replaying it after a link loss could over-subscribe
  // the degraded fabric (the allocator would clamp, but the *decision* is
  // stale). Drop the cache and force a heuristic re-run. Reroutes need no
  // hook of their own: the fault injector reroutes only right after this
  // call.
  void on_topology_change(netsim::Simulator&) override {
    decision_cache_.clear();
    churn_ = true;
  }
  [[nodiscard]] std::string name() const override;

  // --- control-plane statistics ------------------------------------------------
  [[nodiscard]] std::uint64_t heuristic_runs() const noexcept {
    return heuristic_runs_;
  }
  [[nodiscard]] std::uint64_t reuse_hits() const noexcept {
    return reuse_hits_;
  }
  [[nodiscard]] std::uint64_t deferred_flows() const noexcept {
    return deferred_flows_;
  }

 private:
  void arm_timer(netsim::Simulator& sim);

  netsim::Simulator* sim_;
  CoordinatorConfig config_;
  ef::Registry registry_;
  ef::EchelonMaddScheduler policy_;
  obs::TraceSink* trace_ = nullptr;  // null => zero-cost emission branches

  SimTime next_recompute_ = 0.0;
  bool timer_pending_ = false;
  // Churn since the last heuristic run: a hook fired, or the registry
  // revision moved off seen_revision_. A fresh coordinator has seen none of
  // the standing flows, so its first boundary re-runs.
  bool churn_ = true;
  std::uint64_t seen_revision_ = 0;
  std::uint64_t heuristic_runs_ = 0;
  std::uint64_t reuse_hits_ = 0;
  std::uint64_t deferred_flows_ = 0;

  // signature -> last granted rate.
  std::unordered_map<std::uint64_t, BytesPerSec> decision_cache_;
};

}  // namespace echelon::runtime
