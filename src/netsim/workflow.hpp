// Computation/communication DAG and its execution engine.
//
// A Workflow is a static DAG whose nodes are GPU compute tasks, network
// flows, or zero-cost barriers; edges are data dependencies. Paradigm
// generators (src/workload) emit one Workflow per training job, fully
// unrolled over micro-batches, layers, buckets, collective steps, and
// iterations -- mirroring how a real framework's execution graph looks to
// the network.
//
// The layout is flat (DESIGN.md §5): a 20 B node per vertex, flow specs and
// compute payloads in their own arrays, every edge in one list in add_dep
// order, and every label in one char arena per workflow.
//
// The WorkflowEngine binds a Workflow to a Simulator: it releases source
// nodes at start and releases each successor the moment its last
// dependency completes, recording per-node start/finish times.

#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "netsim/simulator.hpp"

namespace echelon::netsim {

using WfNodeId = std::size_t;

enum class WfKind : std::uint8_t { kCompute, kFlow, kBarrier };

struct WfNode {
  WfKind kind = WfKind::kBarrier;
  int dependency_count = 0;
  // Index into the workflow's flow specs (kFlow) or compute payloads
  // (kCompute); 0 for barriers.
  std::uint32_t payload = 0;
  // The node's label: [label_offset, label_offset + label_size) of the
  // workflow's label arena.
  std::uint32_t label_offset = 0;
  std::uint32_t label_size = 0;
};

struct WfCompute {
  WorkerId worker;
  Duration duration = 0.0;
};

// One dependency: `succ` cannot start before `pre` completes.
struct WfEdge {
  std::uint32_t pre = 0;
  std::uint32_t succ = 0;
};

class Workflow {
 public:
  // Job id stamped on every subsequently added flow (flows inherit it in
  // their FlowSpec); compute tasks carry job() to the simulator.
  void set_job(JobId job) noexcept { job_ = job; }
  [[nodiscard]] JobId job() const noexcept { return job_; }

  WfNodeId add_compute(WorkerId worker, Duration duration,
                       std::string_view label);
  WfNodeId add_flow(FlowSpec spec, std::string_view label = {});
  WfNodeId add_barrier(std::string_view label);

  // Declares that `succ` cannot start before `pre` completes. Throws
  // std::out_of_range for an id that names no node and
  // std::invalid_argument for a self-edge (a node that never releases).
  void add_dep(WfNodeId pre, WfNodeId succ);

  // Convenience: every node in `pres` must precede `succ`.
  void add_deps(const std::vector<WfNodeId>& pres, WfNodeId succ) {
    for (WfNodeId p : pres) add_dep(p, succ);
  }

  [[nodiscard]] const WfNode& node(WfNodeId id) const { return nodes_.at(id); }
  // The spec of a kFlow node / the payload of a kCompute node; throw
  // std::invalid_argument for a node of another kind.
  [[nodiscard]] const FlowSpec& flow(WfNodeId id) const;
  [[nodiscard]] const WfCompute& compute(WfNodeId id) const;
  [[nodiscard]] std::string_view label(WfNodeId id) const {
    const WfNode& n = node(id);
    return {labels_.data() + n.label_offset, n.label_size};
  }
  // Every dependency, in add_dep call order.
  [[nodiscard]] const std::vector<WfEdge>& edges() const noexcept {
    return edges_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

  // Nodes with no dependencies (released at start).
  [[nodiscard]] std::vector<WfNodeId> roots() const;

  // Sanity check: the dependency graph must be acyclic to be executable.
  [[nodiscard]] bool is_acyclic() const;

 private:
  WfNodeId add_node(WfKind kind, std::size_t payload, std::string_view label);

  std::vector<WfNode> nodes_;
  std::vector<FlowSpec> flows_;
  std::vector<WfCompute> computes_;
  std::vector<WfEdge> edges_;
  // Not a std::string: moving an empty string into one keeps its heap
  // buffer, so a retired job's labels would outlive it (DESIGN.md §5).
  std::vector<char> labels_;
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
  // Successors in CSR form: node i's are succ_[first_succ_[i] ..
  // first_succ_[i + 1]), in add_dep order.
  std::vector<std::uint32_t> first_succ_;
  std::vector<std::uint32_t> succ_;
  std::vector<SimTime> start_times_;
  std::vector<SimTime> finish_times_;
  std::vector<FlowId> flow_ids_;
  std::size_t completed_ = 0;
};

}  // namespace echelon::netsim
