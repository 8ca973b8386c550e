#include "netsim/workflow.hpp"

#include <limits>
#include <stdexcept>
#include <string>

namespace echelon::netsim {

namespace {

constexpr std::size_t kMaxIndex = std::numeric_limits<std::uint32_t>::max();

// Successor lists in CSR form from the edge list, by a stable counting sort
// on `pre`: each node's successors keep their add_dep order.
void build_successors(std::size_t nodes, const std::vector<WfEdge>& edges,
                      std::vector<std::uint32_t>& first,
                      std::vector<std::uint32_t>& succ) {
  first.assign(nodes + 1, 0);
  for (const WfEdge& e : edges) ++first[e.pre + 1];
  for (std::size_t i = 0; i < nodes; ++i) first[i + 1] += first[i];
  // Fill by advancing each node's cursor first[pre]; afterwards first[i]
  // holds node i's end, i.e. node i + 1's begin, so shift back by one.
  succ.resize(edges.size());
  for (const WfEdge& e : edges) succ[first[e.pre]++] = e.succ;
  for (std::size_t i = nodes; i > 0; --i) first[i] = first[i - 1];
  first[0] = 0;
}

}  // namespace

WfNodeId Workflow::add_compute(WorkerId worker, Duration duration,
                               std::string_view label) {
  computes_.push_back(WfCompute{.worker = worker, .duration = duration});
  return add_node(WfKind::kCompute, computes_.size() - 1, label);
}

WfNodeId Workflow::add_flow(FlowSpec spec, std::string_view label) {
  if (!spec.job.valid()) spec.job = job_;
  flows_.push_back(spec);
  return add_node(WfKind::kFlow, flows_.size() - 1, label);
}

WfNodeId Workflow::add_barrier(std::string_view label) {
  return add_node(WfKind::kBarrier, 0, label);
}

WfNodeId Workflow::add_node(WfKind kind, std::size_t payload,
                            std::string_view label) {
  if (nodes_.size() >= kMaxIndex || labels_.size() + label.size() > kMaxIndex) {
    throw std::length_error("Workflow: more than 2^32 nodes or label bytes");
  }
  nodes_.push_back(WfNode{.kind = kind,
                          .payload = static_cast<std::uint32_t>(payload),
                          .label_offset =
                              static_cast<std::uint32_t>(labels_.size()),
                          .label_size =
                              static_cast<std::uint32_t>(label.size())});
  labels_.insert(labels_.end(), label.begin(), label.end());
  return nodes_.size() - 1;
}

void Workflow::add_dep(WfNodeId pre, WfNodeId succ) {
  for (const WfNodeId id : {pre, succ}) {
    if (id >= nodes_.size()) {
      throw std::out_of_range("Workflow::add_dep: node " + std::to_string(id) +
                              " does not exist (the workflow has " +
                              std::to_string(nodes_.size()) + " nodes)");
    }
  }
  if (pre == succ) {
    throw std::invalid_argument("Workflow::add_dep: node " +
                                std::to_string(pre) + " cannot depend on "
                                "itself");
  }
  if (edges_.size() >= kMaxIndex) {
    throw std::length_error("Workflow: more than 2^32 dependencies");
  }
  edges_.push_back(WfEdge{.pre = static_cast<std::uint32_t>(pre),
                          .succ = static_cast<std::uint32_t>(succ)});
  ++nodes_[succ].dependency_count;
}

const FlowSpec& Workflow::flow(WfNodeId id) const {
  const WfNode& n = node(id);
  if (n.kind != WfKind::kFlow) {
    throw std::invalid_argument("Workflow::flow: node " + std::to_string(id) +
                                " is not a flow");
  }
  return flows_[n.payload];
}

const WfCompute& Workflow::compute(WfNodeId id) const {
  const WfNode& n = node(id);
  if (n.kind != WfKind::kCompute) {
    throw std::invalid_argument("Workflow::compute: node " +
                                std::to_string(id) + " is not a compute task");
  }
  return computes_[n.payload];
}

std::vector<WfNodeId> Workflow::roots() const {
  std::vector<WfNodeId> out;
  for (WfNodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].dependency_count == 0) out.push_back(id);
  }
  return out;
}

bool Workflow::is_acyclic() const {
  // Kahn's algorithm: if a topological order covers all nodes, no cycle.
  std::vector<std::uint32_t> first;
  std::vector<std::uint32_t> succ;
  build_successors(nodes_.size(), edges_, first, succ);
  std::vector<int> indegree(nodes_.size());
  std::vector<WfNodeId> ready;
  for (WfNodeId id = 0; id < nodes_.size(); ++id) {
    indegree[id] = nodes_[id].dependency_count;
    if (indegree[id] == 0) ready.push_back(id);
  }
  std::size_t visited = 0;
  while (!ready.empty()) {
    const WfNodeId cur = ready.back();
    ready.pop_back();
    ++visited;
    for (std::uint32_t e = first[cur]; e < first[cur + 1]; ++e) {
      if (--indegree[succ[e]] == 0) ready.push_back(succ[e]);
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
  for (WfNodeId id = 0; id < wf->size(); ++id) {
    pending_[id] = wf->node(id).dependency_count;
  }
  build_successors(wf->size(), wf->edges(), first_succ_, succ_);
}

void WorkflowEngine::start() {
  for (const WfNodeId id : wf_->roots()) release(id);
}

void WorkflowEngine::launch(SimTime at) {
  sim_->schedule_at(at, [this](Simulator&) { start(); });
}

void WorkflowEngine::release(WfNodeId id) {
  start_times_[id] = sim_->now();
  switch (wf_->node(id).kind) {
    case WfKind::kCompute: {
      const WfCompute& c = wf_->compute(id);
      sim_->enqueue_task(c.worker, c.duration, std::string(wf_->label(id)),
                         wf_->job(),
                         [this, id](Simulator&, const ComputeTask&) {
                           node_done(id);
                         });
      break;
    }
    case WfKind::kFlow: {
      const FlowId fid = sim_->submit_flow(
          wf_->flow(id),
          [this, id](Simulator&, const Flow&) { node_done(id); },
          wf_->label(id));
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
  for (std::uint32_t e = first_succ_[id]; e < first_succ_[id + 1]; ++e) {
    const WfNodeId succ = succ_[e];
    if (--pending_[succ] == 0) release(succ);
  }
  if (completes_workflow && on_complete) on_complete(*sim_);
}

}  // namespace echelon::netsim
