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
// allocation-free and sort-free:
//
//   1. A *persistent group cache*: groups keyed by EchelonFlowId (or a
//      singleton key for unregistered flows) with members kept
//      deadline-sorted by insertion, updated incrementally in
//      on_flow_arrival / on_flow_departure instead of re-bucketing and
//      re-sorting the whole active set each pass. Every control() pass
//      cheaply validates the cache against the active span (O(active):
//      recompute each flow's (key, deadline) and compare) and falls back to
//      a full rebuild on any mismatch -- so callers that never invoke the
//      hooks (benchmarks, interval coordinators with churn) still get
//      correct results, just with a rebuild on membership-changing passes.
//   2. *Epoch-stamped dense scratch* (common/scratch.hpp, topology/dense.hpp)
//      for all per-link state: residual capacities, EDF prefix loads, and
//      work-conservation level loads. Lazy reset via a generation counter --
//      no hash maps, no O(L) clears, no per-pass allocations after warm-up.
//
// Every control() pass validates the group cache, re-ranks every group and
// re-fills every member.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/scratch.hpp"
#include "echelon/linkcaps.hpp"
#include "echelon/registry.hpp"
#include "netsim/scheduler.hpp"
#include "netsim/simulator.hpp"
#include "topology/dense.hpp"

namespace echelon::ef {

enum class InterRanking {
  // Ascending achievable tardiness: clear the least-behind EchelonFlow first
  // (SEBF analog; minimizes the Eq. 4 sum in the shortest-first sense).
  kSmallestTardinessFirst,
  // Descending: rescue the most-behind EchelonFlow first.
  kLargestTardinessFirst,
};

struct EchelonMaddConfig {
  bool work_conserving = true;
  InterRanking ranking = InterRanking::kSmallestTardinessFirst;
  // Weighted Eq. 4 variant: rank EchelonFlows by achievable tardiness scaled
  // by 1/weight, so a weight-2 EchelonFlow is served as if its tardiness
  // mattered twice as much. Weights come from the registry (paper: "should
  // there be a proper way to assign weights to different DDLT jobs").
  bool use_weights = false;
};

class EchelonMaddScheduler final : public netsim::NetworkScheduler {
 public:
  // `registry` provides arrangement functions and reference times; it must
  // outlive the scheduler and be attached to the same simulator.
  explicit EchelonMaddScheduler(const Registry* registry,
                                EchelonMaddConfig config = {})
      : registry_(registry), config_(config) {}

  void control(netsim::Simulator& sim,
               std::span<netsim::Flow*> active) override;
  void on_flow_arrival(netsim::Simulator& sim,
                       const netsim::Flow& flow) override;
  void on_flow_departure(netsim::Simulator& sim,
                         const netsim::Flow& flow) override;

  [[nodiscard]] std::string name() const override { return "echelonflow-madd"; }

  // --- cache telemetry (tests / perf tracking) -------------------------------
  // Number of full group-cache rebuilds control() had to perform because the
  // cache disagreed with the active set (0 when the arrival/departure hooks
  // are wired up, 1 for hook-less callers' first pass).
  [[nodiscard]] std::uint64_t cache_rebuilds() const noexcept {
    return cache_rebuilds_;
  }
  [[nodiscard]] std::size_t cached_group_count() const noexcept {
    return groups_by_key_.size();
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct CachedMember {
    FlowId id;
    SimTime deadline = 0.0;        // d_j, fixed while the flow is active
    netsim::Flow* flow = nullptr;  // re-bound every control() pass
  };
  struct GroupSlot {
    std::uint64_t key = 0;
    double weight = 1.0;
    std::vector<CachedMember> members;  // deadline-sorted, arrival order
                                        // within equal deadlines
    // Per-pass scratch:
    double tardiness_standalone = 0.0;
    double rank_key = 0.0;
  };
  struct FlowMeta {  // indexed by FlowId; validates the cache each pass
    std::uint32_t slot = kNoSlot;
    std::uint64_t key = 0;
    SimTime deadline = 0.0;
    // Interned route identity at caching time: a fault-driven reroute gives
    // the flow a different RouteId, which cache_valid detects so exactly the
    // rerouted flows re-enter the cache (path bytes are never compared).
    RouteId route;
  };
  struct Resolved {
    std::uint64_t key;
    SimTime deadline;
    double weight;
  };
  struct PerLink {  // EDF prefix state for min_uniform_tardiness
    double prefix_bytes = 0.0;
    double cap = 0.0;
  };

  [[nodiscard]] Resolved resolve(const netsim::Flow& f) const;
  // Pure read-only check that flow `f`'s cache entry still matches what
  // resolve() yields today.
  [[nodiscard]] bool cache_valid(const netsim::Flow& f) const;
  void add_to_cache(const netsim::Flow& f);
  void remove_from_cache(const netsim::Flow& f);
  void rebuild_cache(std::span<netsim::Flow*> active);
  double min_uniform_tardiness(const GroupSlot& g, SimTime now,
                               const detail::ResidualCaps* residual,
                               const topology::Topology& topo);

  const Registry* registry_;
  EchelonMaddConfig config_;

  // --- persistent group cache (mutates only on membership changes) ----------
  std::vector<GroupSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<std::uint64_t, std::uint32_t> slot_of_key_;
  std::vector<std::uint32_t> groups_by_key_;  // in-use slots, ascending key
  std::vector<FlowMeta> meta_;                // indexed by FlowId
  std::size_t cached_members_ = 0;
  std::uint64_t cache_rebuilds_ = 0;

  // --- per-pass arenas (allocation-free after warm-up) -----------------------
  detail::ResidualCaps caps_;
  EpochScratch<netsim::Flow*> flow_ptr_;      // FlowId -> active Flow*
  topology::LinkScratch<PerLink> tard_scratch_;
  topology::LinkScratch<double> load_scratch_;
  std::vector<std::uint32_t> order_;          // per-pass group rank order
};

}  // namespace echelon::ef
