// EchelonFlow scheduling: the paper's Property-4 adaptation of MADD.
//
// The one-to-one metric mapping (paper §3.3):
//   Coflow completion time  ->  EchelonFlow tardiness
//
// * Intra-EchelonFlow: instead of pacing all flows to a common completion
//   time, compute the minimal uniform tardiness t* such that every active
//   member can finish by its ideal finish time d_j plus t*, then pace flow j
//   to the deadline d_j + t*. Feasibility per link follows the classic
//   earliest-deadline prefix condition: for members crossing the link in
//   deadline order, sum_{j<=k} remaining_j <= cap * (d_k + t - now) for all
//   k, giving
//       t*_link = max_k ( prefix_bytes_k / cap - (d_k - now) )
//   and t* = max over links (floored at 0 -- we never rush flows *ahead* of
//   the arrangement at the expense of other jobs; see work conservation).
//   On a single bottleneck this reproduces preemptive EDF, which provably
//   minimizes maximum lateness; with recomputation at every arrival and
//   departure the fabric-wide policy is the MADD-style heuristic the paper
//   envisions.
// * Inter-EchelonFlow: EchelonFlows are ranked by achievable tardiness
//   (Eq. 2 metric) -- the analog of Varys' SEBF ordering -- and allocated
//   against residual capacity in rank order.
// * Work conservation: leftover capacity is granted in rank order, one
//   deadline level at a time, scaled proportionally to remaining bytes so a
//   level's flows keep finishing simultaneously (Property 2: with an Eq. 5
//   arrangement -- a single deadline level -- this scheduler degenerates to
//   exactly Coflow-MADD).
//
// Member deadlines come from the EchelonFlow Registry (arrangement function
// + observed reference time). Flows without a registered group fall back to
// d = flow start time (tardiness = flow completion time).
//
// --- Hot-path data layout (see DESIGN.md, "Hot-path data layout") ---------
// control() runs on every flow arrival/departure, so this scheduler is the
// control plane's scalability ceiling. Grouping, ranking and the rate grants
// are the shared group-scheduler skeleton (echelon/linkcaps.hpp), which
// Coflow-MADD and Aalo use too: this class supplies the key (an EchelonFlow
// whose member's deadline is known, else a singleton), each member's
// deadline, and the tardiness rank and pacing. A stable insertion sort puts
// each group's members in deadline order (they arrive nearly sorted, so
// this is close to linear). Per-link state -- residual capacities, EDF
// prefix loads, work-conservation loads -- lives in epoch-stamped dense
// scratch (common/scratch.hpp, topology/dense.hpp). No state survives a
// pass, so the scheduler needs no membership hooks, and a steady-state pass
// is allocation-free.
//
// Every control() pass regroups, re-ranks and re-fills the whole active set.

#pragma once

#include <span>

#include "echelon/linkcaps.hpp"
#include "echelon/registry.hpp"
#include "netsim/scheduler.hpp"
#include "netsim/simulator.hpp"
#include "topology/dense.hpp"

namespace echelon::ef {

class EchelonMaddScheduler final : public netsim::NetworkScheduler {
 public:
  // `registry` provides arrangement functions and reference times; it must
  // outlive the scheduler and be attached to the same simulator.
  explicit EchelonMaddScheduler(const Registry* registry)
      : registry_(registry) {}

  void control(netsim::Simulator& sim,
               std::span<netsim::Flow*> active) override;

  [[nodiscard]] std::string name() const override { return "echelonflow-madd"; }

 private:
  struct PerLink {  // EDF prefix state for min_uniform_tardiness
    double prefix_bytes = 0.0;
    double cap = 0.0;
  };

  [[nodiscard]] detail::Keyed resolve(const netsim::Flow& f) const;
  void build_groups(std::span<netsim::Flow*> active);
  double min_uniform_tardiness(std::span<const detail::Member> members,
                               SimTime now, const topology::Topology& topo);

  const Registry* registry_;

  // --- reusable per-pass arenas (allocation-free after warm-up) -------------
  detail::GroupPass pass_;  // members deadline-sorted within each group
  detail::ResidualCaps caps_;
  topology::LinkScratch<PerLink> tard_scratch_;
};

}  // namespace echelon::ef
