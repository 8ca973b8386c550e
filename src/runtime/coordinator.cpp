#include "runtime/coordinator.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace echelon::runtime {

Coordinator::Coordinator(netsim::Simulator* sim, CoordinatorConfig config)
    : sim_(sim), config_(config), policy_(&registry_) {
  assert(sim != nullptr);
  // A zero, negative or NaN interval would re-arm the boundary timer at
  // `now` forever.
  if (config_.mode == SchedulingMode::kInterval &&
      !(std::isfinite(config_.interval) && config_.interval > 0.0)) {
    throw std::invalid_argument(
        "coordinator: interval must be finite and > 0, got " +
        std::to_string(config_.interval));
  }
  registry_.attach(*sim);
}

EchelonFlowId Coordinator::accept_request(const EchelonFlowRequest& request) {
  if (static_cast<int>(request.flows.size()) != request.arrangement.size()) {
    throw std::invalid_argument(
        "coordinator: request '" + request.label + "' has " +
        std::to_string(request.flows.size()) + " flows for an arrangement of " +
        std::to_string(request.arrangement.size()));
  }
  return registry_.create(request.job, request.arrangement, request.label,
                          request.weight);
}

void Coordinator::arm_timer(netsim::Simulator& sim) {
  if (timer_pending_) return;
  timer_pending_ = true;
  sim.schedule_at(next_recompute_, [this](netsim::Simulator& s) {
    timer_pending_ = false;
    // Force a scheduler pass; `control` below sees now >= next_recompute_
    // and re-runs the heuristic.
    s.invalidate_allocation();
  });
}

void Coordinator::control(netsim::Simulator& sim,
                          std::span<netsim::Flow*> active) {
  // An interval boundary with no churn since the previous heuristic run
  // leaves the standing allocation valid -- skip the recompute (this is
  // what makes interval scheduling cheaper than per-event even at low event
  // rates).
  const bool due = time_le(next_recompute_, sim.now());
  const std::uint64_t revision = registry_.revision();
  if (config_.mode == SchedulingMode::kInterval && due && !churn_ &&
      revision == seen_revision_) {
    if (!active.empty()) {
      next_recompute_ = sim.now() + config_.interval;
      arm_timer(sim);
    }
    return;
  }

  if (config_.mode == SchedulingMode::kPerEvent || due) {
    policy_.control(sim, active);
    ++heuristic_runs_;
    churn_ = false;
    seen_revision_ = revision;
    if (config_.mode == SchedulingMode::kInterval) {
      next_recompute_ = sim.now() + config_.interval;
      if (config_.iterative_reuse) {
        for (const netsim::Flow* f : active) {
          if (f->spec.signature != 0 && f->rate_cap) {
            decision_cache_[f->spec.signature] = *f->rate_cap;
          }
        }
      }
      if (!active.empty()) arm_timer(sim);
    }
    return;
  }

  // Mid-interval: reuse standing allocations. Flows that already carry a
  // rate cap keep it; new arrivals are granted a cached decision when their
  // structural signature was scheduled in an earlier iteration, and are
  // otherwise parked until the next scheduling interval.
  for (netsim::Flow* f : active) {
    if (f->rate_cap) continue;
    if (config_.iterative_reuse && f->spec.signature != 0) {
      if (const auto it = decision_cache_.find(f->spec.signature);
          it != decision_cache_.end()) {
        f->rate_cap = it->second;
        ++reuse_hits_;
        continue;
      }
    }
    f->rate_cap = 0.0;
    ++deferred_flows_;
  }
  if (!active.empty()) arm_timer(sim);
}

std::string Coordinator::name() const {
  std::string n = "coordinator[" + policy_.name();
  if (config_.mode == SchedulingMode::kInterval) {
    n += ",interval";
    if (config_.iterative_reuse) n += "+reuse";
  }
  n += "]";
  return n;
}

}  // namespace echelon::runtime
