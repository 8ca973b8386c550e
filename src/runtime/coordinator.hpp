// The EchelonFlow Coordinator (paper §5, Fig. 7).
//
// Receives EchelonFlow requests from agents, runs the scheduling heuristic
// (EchelonFlow-MADD by default), and emits bandwidth allocations. Three
// operating points, matching the paper's scalability discussion:
//
//   * per-event: re-run the heuristic on every flow arrival/departure (the
//     textbook Coflow-scheduler behaviour; most reactive, most expensive).
//   * interval: re-run at fixed scheduling intervals; flows arriving
//     mid-interval wait for the next decision.
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
  // Membership hooks only count churn for the interval policy: the inner
  // heuristic regroups the active set on every pass and keeps no membership
  // state of its own.
  void on_flow_arrival(netsim::Simulator&, const netsim::Flow&) override {
    ++dirty_events_;
  }
  void on_flow_departure(netsim::Simulator&, const netsim::Flow&) override {
    ++dirty_events_;
  }
  // Dirty marks (DESIGN.md §12) are interval-mode churn detection: a mark
  // with no accompanying arrival/departure (park/resume, reroute, external
  // setter churn) still invalidates the standing allocation, so the next
  // interval boundary re-runs instead of skipping.
  void mark_job_dirty(JobId) override { ++dirty_events_; }
  void mark_all_jobs_dirty() override { ++dirty_events_; }
  // Runtime topology changes (fault injection) invalidate the iterative
  // decision cache: a cached rate was granted against path capacities that
  // no longer hold, and replaying it after a link loss could over-subscribe
  // the degraded fabric (the allocator would clamp, but the *decision* is
  // stale). Drop the cache and force a heuristic re-run.
  void on_topology_change(netsim::Simulator&) override {
    decision_cache_.clear();
    ++dirty_events_;
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
  std::uint64_t dirty_events_ = 0;  // arrivals/departures/marks since last run
  std::uint64_t heuristic_runs_ = 0;
  std::uint64_t reuse_hits_ = 0;
  std::uint64_t deferred_flows_ = 0;

  // signature -> last granted rate.
  std::unordered_map<std::uint64_t, BytesPerSec> decision_cache_;
};

}  // namespace echelon::runtime
