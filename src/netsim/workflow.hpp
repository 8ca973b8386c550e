// Computation/communication DAG and its execution engine.
//
// A Workflow is a static DAG whose nodes are GPU compute tasks, network
// flows, or zero-cost barriers; edges are data dependencies. Paradigm
// generators (src/workload) emit one Workflow per training job, fully
// unrolled over micro-batches, layers, buckets, collective steps, and
// iterations -- mirroring how a real framework's execution graph looks to
// the network.
//
// The WorkflowEngine binds a Workflow to a Simulator: it releases source
// nodes at start and releases each successor the moment its last
// dependency completes, recording per-node start/finish times.

#pragma once

#include <cassert>
#include <functional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "netsim/simulator.hpp"

namespace echelon::netsim {

using WfNodeId = std::size_t;

enum class WfKind { kCompute, kFlow, kBarrier };

struct WfNode {
  WfNodeId id = 0;
  WfKind kind = WfKind::kBarrier;
  // kCompute and kBarrier; a kFlow node's label is flow.label.
  std::string label;

  // kCompute
  WorkerId worker;
  Duration duration = 0.0;

  // kFlow
  FlowSpec flow;

  std::vector<WfNodeId> successors;
  int dependency_count = 0;
};

class Workflow {
 public:
  // Job id stamped on every subsequently added node (flows inherit it in
  // their FlowSpec; compute tasks carry it to the simulator).
  void set_job(JobId job) noexcept { job_ = job; }
  [[nodiscard]] JobId job() const noexcept { return job_; }

  WfNodeId add_compute(WorkerId worker, Duration duration, std::string label) {
    WfNode n;
    n.kind = WfKind::kCompute;
    n.worker = worker;
    n.duration = duration;
    n.label = std::move(label);
    return add_node(std::move(n));
  }

  WfNodeId add_flow(FlowSpec spec) {
    WfNode n;
    n.kind = WfKind::kFlow;
    n.flow = std::move(spec);
    return add_node(std::move(n));
  }

  WfNodeId add_barrier(std::string label) {
    WfNode n;
    n.kind = WfKind::kBarrier;
    n.label = std::move(label);
    return add_node(std::move(n));
  }

  // Declares that `succ` cannot start before `pre` completes.
  void add_dep(WfNodeId pre, WfNodeId succ) {
    assert(pre < nodes_.size() && succ < nodes_.size() && pre != succ);
    nodes_[pre].successors.push_back(succ);
    ++nodes_[succ].dependency_count;
  }

  // Convenience: every node in `pres` must precede `succ`.
  void add_deps(const std::vector<WfNodeId>& pres, WfNodeId succ) {
    for (WfNodeId p : pres) add_dep(p, succ);
  }

  [[nodiscard]] const WfNode& node(WfNodeId id) const { return nodes_.at(id); }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] const std::vector<WfNode>& nodes() const noexcept {
    return nodes_;
  }

  // Nodes with no dependencies (released at start).
  [[nodiscard]] std::vector<WfNodeId> roots() const {
    std::vector<WfNodeId> out;
    for (const WfNode& n : nodes_) {
      if (n.dependency_count == 0) out.push_back(n.id);
    }
    return out;
  }

  // Sanity check: the dependency graph must be acyclic to be executable.
  [[nodiscard]] bool is_acyclic() const;

 private:
  WfNodeId add_node(WfNode n) {
    n.id = nodes_.size();
    if (!n.flow.job.valid()) n.flow.job = job_;
    nodes_.push_back(std::move(n));
    return nodes_.back().id;
  }

  std::vector<WfNode> nodes_;
  JobId job_;
};

class WorkflowEngine {
 public:
  // The engine keeps pointers to both; they must outlive it.
  WorkflowEngine(Simulator* sim, const Workflow* wf);

  // Releases all root nodes now, synchronously: zero-cost roots (barriers,
  // zero-byte flows) and their successor chains complete before it returns.
  void start();
  // Schedules start() at `at` (>= sim.now()).
  void launch(SimTime at);

  [[nodiscard]] bool finished() const noexcept {
    return completed_ == wf_->size();
  }
  [[nodiscard]] std::size_t completed_nodes() const noexcept {
    return completed_;
  }

  [[nodiscard]] SimTime node_start(WfNodeId id) const {
    return start_times_.at(id);
  }
  [[nodiscard]] SimTime node_finish(WfNodeId id) const {
    return finish_times_.at(id);
  }
  // FlowId assigned to a kFlow node once submitted (invalid before).
  [[nodiscard]] FlowId flow_of(WfNodeId id) const { return flow_ids_.at(id); }

  // Hooks. `on_flow_submitted` lets callers (the EchelonFlow registry) bind
  // simulator FlowIds to abstraction-level flow positions as they appear.
  std::function<void(WfNodeId, FlowId)> on_flow_submitted;
  std::function<void(Simulator&)> on_complete;

 private:
  void release(WfNodeId id);
  void node_done(WfNodeId id);

  Simulator* sim_;
  const Workflow* wf_;
  std::vector<int> pending_;
  std::vector<SimTime> start_times_;
  std::vector<SimTime> finish_times_;
  std::vector<FlowId> flow_ids_;
  std::size_t completed_ = 0;
};

}  // namespace echelon::netsim
