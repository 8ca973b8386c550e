// Shared types for collective-operation decomposition.
//
// Each collective primitive (ring all-reduce, all-gather, PS push/pull, ...)
// expands into a fragment of a netsim::Workflow: a `start` barrier, the
// constituent flows with their internal dependencies, and a `done` barrier.
// Callers chain fragments by adding edges to/from the barriers.

#pragma once

#include <charconv>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "netsim/workflow.hpp"

namespace echelon::collective {

struct CollectiveHandles {
  netsim::WfNodeId start = 0;  // released when the collective may begin
  netsim::WfNodeId done = 0;   // completes when every flow has finished
  std::vector<netsim::WfNodeId> flow_nodes;
};

// Tag stamped on every flow a collective emits, identifying the owning
// job and EchelonFlow group. `next_index` advances per emitted flow so each
// flow has a unique position within its group.
struct FlowTag {
  JobId job;
  EchelonFlowId group;
  int next_index = 0;

  // Base for FlowSpec::route_hint: flow j gets route_hint_base + j, a
  // structural identity stable across training iterations (generators
  // derive the base from job id and the EchelonFlow's ordinal *within* the
  // iteration), so structurally identical flows across iterations get the
  // same ECMP seed, intern to the same route and collapse into one
  // allocator equivalence class. 0 keeps the historical per-flow-id
  // seeding.
  std::uint64_t route_hint_base = 0;

  // Stamps job/group/index/route hint onto a flow spec and advances the
  // index. Collective helpers call this once per emitted flow.
  void stamp(netsim::FlowSpec& spec) noexcept {
    spec.job = job;
    spec.group = group;
    spec.index_in_group = next_index;
    spec.route_hint =
        route_hint_base == 0
            ? 0
            : route_hint_base + static_cast<std::uint64_t>(next_index);
    ++next_index;
  }
};

// Appends the decimal form of `v` to `out`, as `out += std::to_string(v)`
// would, without the temporary. Collective helpers format every flow label
// in one reused buffer: truncate it to the collective's label, then append.
inline void append_number(std::string& out, std::size_t v) {
  char digits[20];
  const auto end = std::to_chars(digits, digits + sizeof digits, v).ptr;
  out.append(digits, end);
}

}  // namespace echelon::collective
