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
// --- Incremental control plane (DESIGN.md §12) -----------------------------
// In SchedMode::kIncremental the group cache above generalizes into a full
// dirty-job-scoped control plane. Each pass is classified by the *era* --
// the pair (Simulator::accounting_generation, Topology::capacity_epoch).
// Within one era every remaining-byte and capacity operand is bitwise
// unchanged, so a group's standalone tardiness and rank key stay valid.
//
//   * era change or all-jobs-dirty  -> the full validated pass (identical to
//     kFullRecompute), which also re-stamps every group's rank cache.
//   * same era, no dirty jobs       -> exact skip: a full pass would rewrite
//     bitwise-identical weights/caps through the compare-and-set setters.
//   * same era, some dirty jobs     -> scoped pass: a union-find over the
//     current member paths partitions groups into link-disjoint components;
//     only components containing a dirty group -- or a link *released* since
//     the last pass by a departure or reroute -- are re-ranked, re-sorted
//     and re-filled against fresh residuals. Link-disjointness makes the
//     per-link fill sequence of a scheduled component identical to its
//     restriction out of a full pass, and untouched components keep their
//     (provably identical) previous caps.
//
// Exactness leans on three invariants: (a) every resolve()-changing event
// marks jobs (the Simulator marks arrivals/completions/fault outcomes and
// setter churn; the Registry escalates create() and reference-time fixes to
// mark_all_jobs_dirty), (b) rank caches are era-stamped and eras are only
// entered through a full pass, and (c) the rank comparator is a total
// order, so sorting a scheduled subset reproduces the full sort's relative
// order. tests/test_churn_equivalence.cpp enforces bit-identical results
// against kFullRecompute across the sched x fabric x chaos matrix.

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
  void mark_job_dirty(JobId job) override { dirty_.mark(job); }
  void mark_all_jobs_dirty() override { dirty_.mark_all(); }

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
    SimTime deadline = 0.0;         // d_j, fixed while the flow is active
    std::uint64_t job = 0;          // owning JobId value (dirty-set matching)
    // Re-bound every pass. Doubles as the *hint* pointer for flows the
    // simulator does not own (bench / harness-driven spans): when
    // id >= sim.flow_count() the hook-time pointer is reused, so such
    // callers must keep their Flow objects address-stable while cached.
    netsim::Flow* flow = nullptr;
  };
  struct GroupSlot {
    std::uint64_t key = 0;
    double weight = 1.0;
    std::vector<CachedMember> members;  // deadline-sorted, arrival order
                                        // within equal deadlines
    // Rank cache, valid while rank_era matches the scheduler's era counter
    // (standalone tardiness depends only on member remaining/deadlines and
    // full link capacities -- all era-constant):
    double tardiness_standalone = 0.0;
    double rank_key = 0.0;
    std::uint64_t rank_era = 0;  // era_seq_ value at last compute (0 = never)
    // Membership changed since the slot was last scheduled: set by the
    // arrival/departure hooks, cleared when the slot is (re)computed.
    bool force_dirty = false;
    // Per-pass transient: this slot matched the dirty set this pass.
    bool pass_dirty = false;
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
  // MADD fill + work conservation + final backfill over the groups in
  // order_, in order, against freshly reset caps_. Shared by the full and
  // the scoped pass (the scoped pass restricts order_ to one-or-more whole
  // link-disjoint components, which leaves every per-link consume sequence
  // identical to its full-pass counterpart).
  void run_fill(SimTime now, const topology::Topology& topo);
  void full_pass(std::span<netsim::Flow*> active, SimTime now,
                 const topology::Topology& topo);
  // Scoped dirty-component pass; returns false when it detected a condition
  // it cannot handle exactly (resolve drift, un-interned old route) and the
  // caller must fall back to full_pass.
  [[nodiscard]] bool scoped_pass(netsim::Simulator& sim, SimTime now,
                                 const topology::Topology& topo);
  [[nodiscard]] std::uint32_t uf_find(std::uint32_t x) noexcept;

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

  // --- incremental control plane (DESIGN.md §12) -----------------------------
  netsim::DirtyJobSet dirty_;
  // Loopback (empty-path) flows are never grouped but still receive the
  // weight-1/no-cap write each full pass; the scoped pass rewrites exactly
  // the dirty ones through this hook-maintained side list.
  struct LoopbackEntry {
    FlowId id;
    std::uint64_t job = 0;
    netsim::Flow* hint = nullptr;
  };
  std::vector<LoopbackEntry> loopback_;
  // Links whose capacity was freed since the last pass: departures append
  // the departing flow's path here, and the scoped pass appends rerouted
  // members' *old* interned paths. Each one re-dirties the component that
  // currently owns it (freed capacity changes that component's backfill).
  std::vector<LinkId> released_links_;
  std::uint32_t forced_slots_ = 0;  // slots with force_dirty set
  // Era tracking: era_seq_ bumps whenever the observed
  // (accounting_generation, capacity_epoch) pair moves; rank caches stamp
  // against it. The sentinel makes the first pass an era change.
  std::uint64_t era_seq_ = 0;
  std::uint64_t last_acc_gen_ = ~0ull;
  std::uint64_t last_cap_epoch_ = ~0ull;
  // Per-pass union-find over slot ids, threaded through a link-owner
  // scratch (first slot seen on a link owns it; later slots union in).
  topology::LinkScratch<std::uint32_t> owner_scratch_;
  std::vector<std::uint32_t> uf_parent_;
  std::vector<std::uint8_t> root_dirty_;
  std::vector<std::uint32_t> dirty_slot_list_;

  // --- per-pass arenas (allocation-free after warm-up) -----------------------
  detail::ResidualCaps caps_;
  EpochScratch<netsim::Flow*> flow_ptr_;      // FlowId -> active Flow*
  topology::LinkScratch<PerLink> tard_scratch_;
  topology::LinkScratch<double> load_scratch_;
  std::vector<std::uint32_t> order_;          // per-pass group rank order
};

}  // namespace echelon::ef
