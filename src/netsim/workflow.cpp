#include "netsim/workflow.hpp"

#include <deque>

namespace echelon::netsim {

bool Workflow::is_acyclic() const {
  // Kahn's algorithm: if a topological order covers all nodes, no cycle.
  std::vector<int> indegree(nodes_.size(), 0);
  for (const WfNode& n : nodes_) indegree[n.id] = n.dependency_count;
  std::deque<WfNodeId> ready;
  for (const WfNode& n : nodes_) {
    if (n.dependency_count == 0) ready.push_back(n.id);
  }
  std::size_t visited = 0;
  while (!ready.empty()) {
    const WfNodeId cur = ready.front();
    ready.pop_front();
    ++visited;
    for (WfNodeId succ : nodes_[cur].successors) {
      if (--indegree[succ] == 0) ready.push_back(succ);
    }
  }
  return visited == nodes_.size();
}

WorkflowEngine::WorkflowEngine(Simulator* sim, const Workflow* wf)
    : sim_(sim),
      wf_(wf),
      pending_(wf->size()),
      start_times_(wf->size(), kTimeInfinity),
      finish_times_(wf->size(), kTimeInfinity),
      flow_ids_(wf->size(), FlowId::invalid()) {
  for (const WfNode& n : wf->nodes()) pending_[n.id] = n.dependency_count;
}

void WorkflowEngine::start() {
  for (const WfNodeId id : wf_->roots()) release(id);
}

void WorkflowEngine::launch(SimTime at) {
  sim_->schedule_at(at, [this](Simulator&) { start(); });
}

void WorkflowEngine::release(WfNodeId id) {
  const WfNode& n = wf_->node(id);
  start_times_[id] = sim_->now();
  switch (n.kind) {
    case WfKind::kCompute:
      sim_->enqueue_task(n.worker, n.duration, n.label, n.flow.job,
                         [this, id](Simulator&, const ComputeTask&) {
                           node_done(id);
                         });
      break;
    case WfKind::kFlow: {
      const FlowId fid = sim_->submit_flow(
          n.flow,
          [this, id](Simulator&, const Flow&) { node_done(id); });
      flow_ids_[id] = fid;
      if (on_flow_submitted) on_flow_submitted(id, fid);
      // Zero-byte flows complete inside submit_flow; node_done already ran.
      break;
    }
    case WfKind::kBarrier:
      node_done(id);
      break;
  }
}

void WorkflowEngine::node_done(WfNodeId id) {
  finish_times_[id] = sim_->now();
  ++completed_;
  // Barriers and zero-byte flows complete synchronously inside release(), so
  // a successor's node_done can run -- and observe finished() -- before this
  // frame returns. Only the call whose own increment completed the workflow
  // may fire on_complete, otherwise every frame in the synchronous release
  // chain would re-fire it.
  const bool completes_workflow = finished();
  for (WfNodeId succ : wf_->node(id).successors) {
    if (--pending_[succ] == 0) release(succ);
  }
  if (completes_workflow && on_complete) on_complete(*sim_);
}

}  // namespace echelon::netsim
