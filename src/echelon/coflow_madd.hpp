// Coflow scheduling baseline: Varys-style SEBF + MADD (Chowdhury et al.,
// SIGCOMM'14), the algorithm the paper adapts in Property 4.
//
// * Inter-coflow: Smallest Effective Bottleneck First -- coflows are served
//   in ascending order of their standalone completion bound
//       Gamma = max_links (sum of remaining bytes crossing the link / cap).
// * Intra-coflow: Minimum Allocation for Desired Duration -- every flow of
//   the coflow is paced at remaining_j / Gamma so all flows finish together
//   exactly at the bottleneck's completion time (no bandwidth wasted on
//   flows that would otherwise finish early).
// * Work conservation: leftover capacity is granted to coflows in
//   SEBF order, scaled proportionally to remaining bytes so simultaneous
//   finishing is preserved.
//
// Flows are grouped by FlowSpec::group; ungrouped flows form singleton
// coflows. Applied to an EchelonFlow-compliant workload this treats every
// EchelonFlow as if it were a Coflow -- which is precisely the strawman the
// paper's Fig. 2 shows losing to fair sharing on pipeline parallelism.
//
// Grouping, ranking and the rate grants are the shared group-scheduler
// skeleton (echelon/linkcaps.hpp); this class supplies the Coflow key and
// the Gamma rank and pacing. Per-link load lives in dense LinkId-indexed
// scratch (see DESIGN.md, "Hot-path data layout"). Every control() pass
// regroups, re-ranks and re-fills the whole active set.

#pragma once

#include <span>

#include "echelon/linkcaps.hpp"
#include "netsim/scheduler.hpp"
#include "netsim/simulator.hpp"
#include "topology/dense.hpp"

namespace echelon::ef {

class CoflowMaddScheduler final : public netsim::NetworkScheduler {
 public:
  void control(netsim::Simulator& sim,
               std::span<netsim::Flow*> active) override;

  [[nodiscard]] std::string name() const override { return "coflow-madd"; }

 private:
  void accumulate_load(const topology::Topology& topo,
                       std::span<const detail::Member> members);
  [[nodiscard]] double completion_bound() const;

  // --- reusable per-pass arenas (allocation-free after warm-up) ---
  detail::GroupPass pass_;
  topology::LinkScratch<double> load_;
  detail::ResidualCaps caps_;
};

}  // namespace echelon::ef
