// Framework-facing EchelonFlow API (paper Fig. 7).
//
// A DDLT framework breaks its workflow into EchelonFlows (as in §4) and
// reports, per EchelonFlow, the arrangement function plus per-flow size,
// source and destination. These are the exact fields the paper lists.

#pragma once

#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "echelon/arrangement.hpp"

namespace echelon::runtime {

struct FlowInfo {
  Bytes size = 0.0;
  NodeId src;
  NodeId dst;
};

// The job is the registering agent's (EchelonFlowAgent::job()).
struct EchelonFlowRequest {
  std::string label;
  // "Shape" and "distance" from head-flow profiling (§3.1).
  ef::Arrangement arrangement;
  // Per-flow info, in arrangement (index) order; size must equal the
  // arrangement's cardinality.
  std::vector<FlowInfo> flows;
  double weight = 1.0;
};

}  // namespace echelon::runtime
