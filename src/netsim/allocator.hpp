// Demand-limited weighted max-min rate allocation (progressive filling),
// decomposed by link-contention component.
//
// Given the set of active flows (each with a path, a weight, and an optional
// rate cap) and per-link capacities, computes each flow's transmission rate:
//
//   rate_i = min(cap_i, weighted max-min fair share)
//
// Caps act as demands in classic water-filling: capacity a capped flow
// declines is redistributed among *uncapped* flows sharing its links, but a
// flow is never pushed above its cap. This gives schedulers exact rate
// control (MADD-style deliberate slowdown) while the default -- every cap
// unset, every weight 1 -- degenerates to TCP-like per-flow max-min fairness.
//
// Component decomposition (DESIGN.md §7): max-min fairness is local to the
// contention graph -- two flows that share no links cannot influence each
// other's rates. Every pass therefore partitions the contended flows into
// link-contention components (an epoch-stamped union-find threaded through
// the dense per-link scratch) and water-fills each component independently.
//
// Explicit-rate return (DESIGN.md §7): the MADD-family, SRPT, Aalo and
// Sincronia schedulers hand over rates, not weights -- each caps every flow
// it schedules against the links' residual capacity, so the caps fit by
// construction. Weighted max-min with caps that fit every link *is* the
// caps, so a pass first sums each link's caps in a separate walk; if every
// contended flow carries a cap and no link's sum exceeds its capacity by
// more than kNoise, every flow gets exactly its cap and the pass skips the
// partition and the fill below. Any uncapped contended flow (fair sharing,
// PriorityQueueEnforcer weights) or overfull link (caps set before a
// capacity cut) falls through to the fill.
//
// Equivalence-class fill (DESIGN.md §11): collectives emit thousands of
// flows over a handful of distinct routed paths, so each component's
// members are additionally partitioned into (interned route, weight, cap)
// equivalence classes and the fill iterates over K classes instead of N
// flows -- per-pass cost scales with distinct routes, not flows. Under
// weighted max-min, flows sharing the same interned route, weight and cap
// are interchangeable: they see identical link constraints, accumulate
// identical per-round increments, and freeze together. The converged class
// rates fan back out to the flows in a serial flow-id-ascending scatter.
//
// Hot-path data layout: the allocator runs after every scheduler control()
// pass, so its per-round state is arena-backed (see DESIGN.md). Per-link
// load lives in an epoch-stamped dense array indexed by LinkId; the
// union-find, component buckets, class partition and unfrozen / next
// working sets are reusable member buffers; and each flow's link indices
// are flattened once per pass into a contiguous u32 arena so the
// water-filling inner loops walk a flat array instead of re-resolving
// LinkIds through a hash map. Steady-state allocate() calls perform no heap
// allocations after warm-up.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/scratch.hpp"
#include "common/time.hpp"
#include "netsim/flow.hpp"
#include "obs/trace.hpp"
#include "topology/dense.hpp"
#include "topology/graph.hpp"

namespace echelon::netsim {

// Weights at or below this epsilon are clamped up to it inside the
// allocator. A zero or negative weight would otherwise divide-by-zero in
// the water level computation (and previously tripped an assert in Debug
// builds); clamping gives such flows an arbitrarily small -- but positive --
// share instead. Weights above the epsilon are used bit-exactly as given.
inline constexpr double kMinFlowWeight = 1e-12;

class RateAllocator {
 public:
  explicit RateAllocator(const topology::Topology* topo) : topo_(topo) {}

  // Overwrites `rate` on every flow in `flows`. Finished flows get rate 0.
  // Non-const: reuses the allocator's internal arenas across calls.
  // `now` is only used to timestamp the optional kAllocPass trace event;
  // standalone callers (benchmarks, property tests) can ignore it.
  void allocate(std::span<Flow*> flows, SimTime now = 0.0);

  // Relative slack of the explicit-rate test and of the fill's relaxed
  // freeze. The fill treats a link within kNoise * capacity of saturation
  // as saturated, since a saturated link's rounded residual can land a few
  // ulps off zero; for the same reason, caps whose re-summed total lands a
  // few ulps above a link's capacity still count as fitting it.
  static constexpr double kNoise = 1e-12;

  // Observability (DESIGN.md §9): with a sink attached, every allocate()
  // pass emits one kAllocPass event (id = pass index, ctx = components seen
  // this pass, value = components water-filled this pass -- every one; both
  // are 0 on an explicit-rate pass, which partitions and fills nothing). With
  // `per_component` additionally set (the Simulator passes detail >=
  // kFlow), every water-filled component emits a kCompFill event
  // (id = pass index, ctx = component id, value = member count) followed by
  // a kClassFill event (same keys, value = equivalence-class count) in
  // ascending-component order. nullptr (the default) detaches: the emission
  // site reduces to a single pointer compare and the pass performs no extra
  // work.
  void set_trace(obs::TraceSink* sink, bool per_component = false) noexcept {
    trace_ = sink;
    trace_components_ = sink != nullptr && per_component;
  }

  // Flows whose `rate` differs from the value they carried into the last
  // allocate() pass, in span order. This is the dirty set the Simulator
  // uses to patch (rather than rebuild) its completion-time heap when the
  // accounting epoch did not move. Valid until the next allocate() call.
  [[nodiscard]] std::span<Flow* const> rate_changed() const noexcept {
    return rate_changed_;
  }

  // Telemetry: cumulative pass and fill counts. Every component of a
  // filled pass is water-filled, so components_filled == components.
  struct Stats {
    std::uint64_t passes = 0;
    // Passes that returned the caps without partitioning or filling; every
    // other pass fills at least one component.
    std::uint64_t explicit_passes = 0;
    std::uint64_t components = 0;         // components seen, cumulative
    // Always 0: the converged-rate cache it counted is gone (DESIGN.md §7).
    // Kept for readers that still report a cache hit ratio.
    std::uint64_t components_reused = 0;
    std::uint64_t components_filled = 0;  // water-filled, cumulative
    // Equivalence classes across water-filled components, cumulative. The
    // fill iterates classes, so classes / class_members is the per-pass
    // cost compression the route-interning layer achieved (1.0 = no
    // sharing, every flow its own class).
    std::uint64_t classes = 0;
    std::uint64_t class_members = 0;      // member flows of those classes
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct LinkLoad {
    double remaining_capacity = 0.0;
    double unfrozen_weight = 0.0;  // sum of weights of unfrozen flows here
    // First active-flow slot that touched this link in the current pass;
    // later touches union their slot with it, threading the union-find
    // through the dense link scratch without a per-pass edge list.
    std::uint32_t owner_slot = 0;
    // Dedup marker for the per-component link list (each filled component
    // walks its classes' routes once and lists every link exactly once).
    // Links are component-disjoint, so the marker needs no reset within a
    // pass; begin_pass() re-initializes it to 0.
    std::uint8_t listed = 0;
  };
  // A contending flow plus the [begin, end) range of its cached link indices
  // in path_flat_ and its clamped effective weight (== Flow::weight for all
  // weights above kMinFlowWeight).
  struct ActiveFlow {
    Flow* flow = nullptr;
    std::uint32_t path_begin = 0;
    std::uint32_t path_end = 0;
    double weight = 1.0;
  };
  static constexpr std::uint32_t kInvalidIndex = 0xffffffffu;

  // The explicit-rate test: true when every contended flow carries a cap
  // and every link's cap sum is at most its capacity * (1 + kNoise). Bails
  // at the first uncapped contended flow or overfull link (caps are > 0, so
  // sums only grow). Reads flows only.
  [[nodiscard]] bool caps_fit(std::span<Flow* const> flows);
  // Phases A-D of a filled pass: partition the contended flows into
  // components and classes, water-fill every component and write the
  // rates. Returns the number of components filled.
  std::uint32_t water_fill(std::span<Flow*> flows, SimTime now);
  [[nodiscard]] std::uint32_t uf_find(std::uint32_t slot) noexcept;
  // Partitions every component's members into (route, weight, cap)
  // equivalence classes and builds each component's deduped link list.
  // Output is read-only during the fills. See water_fill() Phase C.
  void partition_classes();
  // Progressive filling of component `c` at class granularity: the working
  // units are the component's classes and converged rates land in
  // cls_rate_. Touches only the component's own links_/class state plus the
  // unfrozen_/next_ working set.
  void fill_component_class(std::uint32_t c);

  const topology::Topology* topo_;
  Stats stats_;
  std::uint64_t pass_ = 0;
  obs::TraceSink* trace_ = nullptr;  // null => zero-cost emission branch
  bool trace_components_ = false;    // emit kCompFill per filled component

  // --- reusable arenas (allocation-free after warm-up) ---
  topology::LinkScratch<double> cap_sum_;  // caps_fit(): per-link cap sums
  topology::LinkScratch<LinkLoad> links_;
  std::vector<ActiveFlow> af_;            // contended flows, span order
  std::vector<std::uint32_t> path_flat_;  // cached dense link indices
  std::vector<std::uint32_t> uf_parent_;  // union-find over af_ slots
  std::vector<std::uint32_t> comp_of_root_;
  std::vector<std::uint32_t> comp_of_;
  std::vector<std::uint32_t> comp_start_;   // comps+1 prefix offsets
  std::vector<std::uint32_t> comp_cursor_;
  // Slots bucketed by component, ascending slot within: the canonical unit
  // order the fill follows.
  std::vector<std::uint32_t> comp_members_;
  // One water-fill's unfrozen class list and its next-round double buffer.
  std::vector<std::uint32_t> unfrozen_;
  std::vector<std::uint32_t> next_;
  std::vector<double> prev_rate_;           // span-parallel rate snapshot
  std::vector<Flow*> rate_changed_;

  // --- equivalence-class partition (Phase C; DESIGN.md §11) ---
  // Built once per pass over every contended flow, then read-only during
  // the fills. SoA layout keyed by dense class index.
  EpochScratch<std::uint32_t> route_rank_;      // RouteId -> rank this pass
  std::vector<std::uint32_t> pass_routes_;      // this pass's RouteIds, sorted
  std::vector<std::uint32_t> route_key_;        // per comp_members_ entry
  std::vector<std::uint32_t> route_start_;      // route-bucket scatter
  std::vector<std::uint32_t> route_cursor_;
  std::vector<std::uint32_t> route_order_;
  std::vector<std::uint32_t> class_of_slot_;    // af_ slot -> class id
  std::uint32_t n_classes_ = 0;
  std::vector<double> cls_weight_;              // clamped effective weight
  std::vector<double> cls_cap_;                 // valid when cls_has_cap_
  std::vector<std::uint8_t> cls_has_cap_;
  std::vector<double> cls_rate_;                // converged class rate
  std::vector<std::uint32_t> cls_count_;        // members in the class
  std::vector<std::uint32_t> cls_path_begin_;   // route links in path_flat_
  std::vector<std::uint32_t> cls_path_end_;
  std::vector<std::uint32_t> cls_comp_;         // owning component
  std::vector<std::uint32_t> comp_class_start_; // comps+1: classes per comp
  std::vector<std::uint32_t> comp_class_cursor_;
  std::vector<std::uint32_t> comp_classes_;     // class ids bucketed by comp
  std::vector<std::uint32_t> comp_links_;       // deduped links, comp-major
  std::vector<std::uint32_t> comp_link_start_;  // comps+1 offsets into ^
};

}  // namespace echelon::netsim
