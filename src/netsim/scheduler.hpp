// Network control-plane interface.
//
// A NetworkScheduler observes flow arrivals/departures and, whenever the
// active set changes, assigns per-flow weights and rate caps that the
// RateAllocator then turns into feasible rates. The six run_experiment and
// the service pick from (cluster::SchedulerKind, built by cluster::Stack):
//   * FairSharingScheduler (here)     -- TCP-like max-min fairness baseline
//   * SrptScheduler (echelon/)        -- pFabric-style per-flow SRPT
//   * CoflowMaddScheduler (echelon/)  -- Varys-style SEBF + MADD
//   * SincroniaScheduler (echelon/)   -- order-first BSSI + greedy rates
//   * EchelonMaddScheduler (echelon/) -- the paper's tardiness-minimizing
//                                        adaptation (Property 4)
//   * AaloScheduler (echelon/)        -- non-clairvoyant Coflow queues
// The group schedulers share one skeleton (echelon/linkcaps.hpp). The
// paper's §5 coordinator is the Stack's EchelonMaddScheduler, fed by
// runtime::EchelonFlowAgent; the runtime::PriorityQueueEnforcer wrapper is
// constructed directly by its callers (bench_enforcement, tests).
//
// Every control() call is one full pass: the policy recomputes every weight
// and cap from the active span (DESIGN.md §12).

#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "netsim/flow.hpp"

namespace echelon::netsim {

class Simulator;

// Control-plane telemetry, kept by the NetworkScheduler base and surfaced
// through run metrics (sched.* counters). Never feeds back into decisions.
// Every pass is full, so scoped_passes and pass_skips stay 0; they remain
// for readers that still report them.
struct SchedStats {
  std::uint64_t passes = 0;         // control() invocations
  std::uint64_t full_passes = 0;    // full recomputations
  std::uint64_t scoped_passes = 0;  // always 0
  std::uint64_t pass_skips = 0;     // always 0
};

class NetworkScheduler {
 public:
  virtual ~NetworkScheduler() = default;

  // Notification hooks. The simulator calls `control` after any arrival or
  // departure, before recomputing rates.
  virtual void on_flow_arrival(Simulator& sim, const Flow& flow) {
    (void)sim;
    (void)flow;
  }
  virtual void on_flow_departure(Simulator& sim, const Flow& flow) {
    (void)sim;
    (void)flow;
  }
  // Fired by Simulator::notify_topology_change after link capacities or
  // up/down state changed at runtime (fault injection, operator action).
  // Schedulers holding decisions derived from path capacities must drop
  // them here; the default is a no-op because every policy here recomputes
  // from scratch every control pass.
  virtual void on_topology_change(Simulator& sim) { (void)sim; }

  // Never called. They remain only because bench/e2e/bench_e2e.cpp, which
  // the benchmark keeps unchanged, declares overrides of them; they go with
  // that file's next refresh (ROADMAP, "Waiting on the bench/e2e
  // refresh"), as ServiceConfig::threads does.
  virtual void mark_job_dirty(JobId job) { (void)job; }
  virtual void mark_all_jobs_dirty() {}

  // Assign `weight` / `rate_cap` on the active flows. The allocator enforces
  // feasibility afterwards, so over-subscription degrades gracefully rather
  // than violating capacity.
  virtual void control(Simulator& sim, std::span<Flow*> active) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] const SchedStats& sched_stats() const noexcept {
    return stats_;
  }

 protected:
  SchedStats stats_;
};

// Plain weighted max-min fairness: every flow uncapped with weight 1. This is
// the "naive bandwidth fair sharing" baseline of Fig. 2.
class FairSharingScheduler final : public NetworkScheduler {
 public:
  void control(Simulator&, std::span<Flow*> active) override {
    ++stats_.passes;
    for (Flow* f : active) {
      f->weight = 1.0;
      f->rate_cap.reset();
    }
    ++stats_.full_passes;
  }
  [[nodiscard]] std::string name() const override { return "fair"; }
};

}  // namespace echelon::netsim
