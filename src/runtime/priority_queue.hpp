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
// weighted sharing (bench_enforcement, EXT-E).

#pragma once

#include "netsim/scheduler.hpp"
#include "netsim/simulator.hpp"

namespace echelon::runtime {

struct PriorityQueueConfig {
  int num_queues = 8;
};

class PriorityQueueEnforcer final : public netsim::NetworkScheduler {
 public:
  // Throws std::invalid_argument, naming the value, when
  // config.num_queues < 1.
  PriorityQueueEnforcer(netsim::NetworkScheduler* inner,
                        PriorityQueueConfig config = {});

  void control(netsim::Simulator& sim,
               std::span<netsim::Flow*> active) override;

  // Topology and membership hooks pass through so a stateful inner policy
  // (Aalo's per-flow queue state) stays coherent; the enforcer itself is
  // stateless w.r.t. the fabric.
  void on_topology_change(netsim::Simulator& sim) override {
    inner_->on_topology_change(sim);
  }
  void on_flow_arrival(netsim::Simulator& sim,
                       const netsim::Flow& flow) override {
    inner_->on_flow_arrival(sim, flow);
  }
  void on_flow_departure(netsim::Simulator& sim,
                         const netsim::Flow& flow) override {
    inner_->on_flow_departure(sim, flow);
  }

  [[nodiscard]] std::string name() const override {
    return inner_->name() + "+pq" + std::to_string(config_.num_queues);
  }

 private:
  netsim::NetworkScheduler* inner_;
  PriorityQueueConfig config_;
};

}  // namespace echelon::runtime
