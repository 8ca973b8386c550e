// Priority-queue enforcement of scheduling decisions (paper §5).
//
// Real deployments cannot set one exact rate per flow; the common practice
// the paper cites is to map flows onto a small number of priority queues
// and let the fabric do weighted sharing among them. This decorator runs
// the inner scheduler to obtain ideal rates, then *discards* the exact caps
// and replaces them with one of `num_queues` exponentially spaced weights
// (queue q gets weight 2^-q), chosen from the flow's ideal share of its
// bottleneck link.
//
// Comparing a policy with and without this decorator measures the
// enforcement gap between idealized rate control and practical K-queue
// weighted sharing (bench EXT-C).

#pragma once

#include "netsim/scheduler.hpp"
#include "netsim/simulator.hpp"

namespace echelon::runtime {

struct PriorityQueueConfig {
  int num_queues = 8;
};

class PriorityQueueEnforcer final : public netsim::NetworkScheduler {
 public:
  PriorityQueueEnforcer(netsim::NetworkScheduler* inner,
                        PriorityQueueConfig config = {})
      : inner_(inner), config_(config) {}

  void control(netsim::Simulator& sim,
               std::span<netsim::Flow*> active) override;

  // Topology changes must reach the inner policy (the coordinator drops its
  // signature-keyed decision cache on this hook); the enforcer itself is
  // stateless w.r.t. the fabric.
  void on_topology_change(netsim::Simulator& sim) override {
    inner_->on_topology_change(sim);
  }
  // Membership and dirty-mark hooks pass through so inner state (the group
  // cache, the interval coordinator's churn count) stays coherent.
  void on_flow_arrival(netsim::Simulator& sim,
                       const netsim::Flow& flow) override {
    inner_->on_flow_arrival(sim, flow);
  }
  void on_flow_departure(netsim::Simulator& sim,
                         const netsim::Flow& flow) override {
    inner_->on_flow_departure(sim, flow);
  }
  void mark_job_dirty(JobId job) override { inner_->mark_job_dirty(job); }
  void mark_all_jobs_dirty() override { inner_->mark_all_jobs_dirty(); }

  [[nodiscard]] std::string name() const override {
    return inner_->name() + "+pq" + std::to_string(config_.num_queues);
  }

 private:
  netsim::NetworkScheduler* inner_;
  PriorityQueueConfig config_;
};

}  // namespace echelon::runtime
