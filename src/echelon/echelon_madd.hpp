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
// coordinator's scalability ceiling. Two mechanisms keep a steady-state pass
// allocation-free:
//
//   1. *Per-pass grouping into a flat member arena*, the two-pass layout
//      Coflow-MADD and Aalo use: pass 1 resolves each routed flow's
//      (EchelonFlow, deadline) once and finds its group through an
//      epoch-stamped EchelonFlowId-indexed table (a singleton key always
//      opens a new group); pass 2 places members into contiguous per-group
//      ranges, which a stable insertion sort puts in deadline order (members
//      arrive nearly sorted, so this is close to linear). No state survives
//      a pass, so the scheduler needs no membership hooks.
//   2. *Epoch-stamped dense scratch* (common/scratch.hpp, topology/dense.hpp)
//      for all per-link state: residual capacities, EDF prefix loads, and
//      work-conservation level loads. Lazy reset via a generation counter --
//      no hash maps, no O(L) clears, no per-pass allocations after warm-up.
//
// Every control() pass regroups, re-ranks and re-fills the whole active set.

#pragma once

#include <cstdint>
#include <vector>

#include "common/scratch.hpp"
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
  // An EchelonFlow (or singleton) as a [begin, end) range into members_.
  struct Grp {
    std::uint64_t key = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    double tardiness = 0.0;  // standalone achievable tardiness: the rank
  };
  struct Member {
    netsim::Flow* flow = nullptr;
    SimTime deadline = 0.0;  // d_j
  };
  struct Resolved {
    std::uint64_t key;
    SimTime deadline;
  };
  struct PerLink {  // EDF prefix state for min_uniform_tardiness
    double prefix_bytes = 0.0;
    double cap = 0.0;
  };

  [[nodiscard]] Resolved resolve(const netsim::Flow& f) const;
  void build_groups(std::span<netsim::Flow*> active);
  double min_uniform_tardiness(const Grp& g, SimTime now,
                               const detail::ResidualCaps* residual,
                               const topology::Topology& topo);

  const Registry* registry_;

  // --- reusable per-pass arenas (allocation-free after warm-up) -------------
  EpochScratch<std::uint32_t> group_of_ef_;  // EchelonFlowId -> groups_ index
  std::vector<Grp> groups_;
  std::vector<Member> routed_;               // routed flows in span order
  std::vector<std::uint32_t> routed_group_;  // groups_ index per routed_ entry
  std::vector<Member> members_;              // flat, grouped, deadline-sorted
  std::vector<std::uint32_t> order_;         // per-pass group rank order
  detail::ResidualCaps caps_;
  topology::LinkScratch<PerLink> tard_scratch_;
  topology::LinkScratch<double> load_scratch_;
};

}  // namespace echelon::ef
