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
// Component decomposition (DESIGN.md "Incremental max-min allocation"):
// max-min fairness is local to the contention graph -- two flows that share
// no links cannot influence each other's rates. Every pass therefore
// partitions the contended flows into link-contention components (an
// epoch-stamped union-find threaded through the dense per-link scratch) and
// water-fills each component independently. This is the *canonical*
// algorithm for both modes:
//
//   * AllocMode::kFullRecompute -- water-fill every component, every pass.
//   * AllocMode::kIncremental   -- additionally cache each component's
//     converged rates in a slot+generation record store. A component whose
//     exact inputs (member ids in order, weights, caps) match its cached
//     record is *clean*: its rates are restored from the cache without
//     touching the water-fill. Because the fill is a deterministic function
//     of exactly the validated inputs, cached and recomputed rates are
//     bit-identical -- the property tests/test_alloc_equivalence.cpp pins.
//
// Change detection is belt and braces: schedulers that mutate weights/caps
// through Flow::set_weight / set_rate_cap / clear_rate_cap mark the flow
// control-dirty (a cheap short-circuit to "refill"), but validation also
// compares the recorded weight/cap *values* member by member, so direct
// field writes that bypass the setters are still detected. Arrivals miss the
// cache (no record yet); departures change the member list and miss too.
//
// Equivalence-class fill (DESIGN.md §11): collectives emit thousands of
// flows over a handful of distinct routed paths, so each component's
// members are additionally partitioned into (interned route, weight, cap)
// equivalence classes and the production fill (FillMode::kClass) iterates
// over K classes instead of N flows -- per-pass cost scales with distinct
// routes, not flows. The per-flow granularity survives as the reference
// the differential suite compares bit-for-bit.
//
// Hot-path data layout: the allocator runs after every scheduler control()
// pass, so its per-round state is arena-backed (see DESIGN.md). Per-link
// load lives in an epoch-stamped dense array indexed by LinkId; the
// union-find, component buckets, class partition and unfrozen / next
// working sets are reusable member buffers; and each flow's link indices
// are flattened once per pass into a contiguous u32 arena so the
// water-filling inner loops walk a flat array instead of re-resolving
// LinkIds through a hash map. Steady-state allocate() calls perform no heap
// allocations after warm-up -- in incremental mode this includes passes
// that hit or refill the cache with a stable component structure.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/pool.hpp"
#include "common/scratch.hpp"
#include "common/time.hpp"
#include "netsim/flow.hpp"
#include "obs/trace.hpp"
#include "topology/dense.hpp"
#include "topology/graph.hpp"

namespace echelon::netsim {

// Reallocation strategy. Both modes run the identical per-component
// progressive filling and produce bit-identical rates; kIncremental skips
// the fill for components whose inputs are unchanged since their last fill.
enum class AllocMode { kFullRecompute, kIncremental };

// Water-fill granularity (DESIGN.md §11). Under weighted max-min, flows
// sharing the same interned route, weight and cap are interchangeable: they
// see identical link constraints, accumulate identical per-round
// increments, and freeze together. kClass (the production path) therefore
// partitions each component's members into such equivalence classes and
// iterates the fill over K classes instead of N flows, fanning the
// converged class rates back out in a serial flow-id-ascending scatter.
// kPerFlow runs the same canonical fill with every member as its own unit
// -- the reference granularity the class-vs-per-flow differential suite
// compares against. Both granularities execute the identical sequence of
// floating-point operations per unit and per link (grouping-invariant
// form), so results, stats and traces are bit-identical.
enum class FillMode { kPerFlow, kClass };

// Weights at or below this epsilon are clamped up to it inside the
// allocator. A zero or negative weight would otherwise divide-by-zero in
// the water level computation (and previously tripped an assert in Debug
// builds); clamping gives such flows an arbitrarily small -- but positive --
// share instead. Weights above the epsilon are used bit-exactly as given.
inline constexpr double kMinFlowWeight = 1e-12;

class RateAllocator {
 public:
  // Raw allocator defaults to full recompute: standalone users (benchmarks,
  // property tests) typically re-run allocate() on an unchanged population,
  // which the cache would trivially short-circuit. The Simulator -- whose
  // passes see genuine arrival/departure/cap churn -- constructs its
  // allocator in kIncremental mode by default.
  explicit RateAllocator(const topology::Topology* topo,
                         AllocMode mode = AllocMode::kFullRecompute,
                         FillMode fill = FillMode::kClass)
      : topo_(topo), mode_(mode), fill_(fill) {}

  // Overwrites `rate` on every flow in `flows`. Finished flows get rate 0.
  // Non-const: reuses the allocator's internal arenas across calls. Also
  // consumes (clears) every flow's `control_dirty` notification flag.
  // `now` is only used to timestamp the optional kAllocPass trace event;
  // standalone callers (benchmarks, property tests) can ignore it.
  void allocate(std::span<Flow*> flows, SimTime now = 0.0);

  // Observability (DESIGN.md §9): with a sink attached, every allocate()
  // pass emits one kAllocPass event (id = pass index, ctx = components seen
  // this pass, value = components water-filled this pass; reused = ctx -
  // value). With `per_component` additionally set (the Simulator passes
  // detail >= kFlow), every water-filled component emits a kCompFill event
  // (id = pass index, ctx = component id, value = member count) followed by
  // a kClassFill event (same keys, value = equivalence-class count) in
  // ascending-component order -- parallel fills record into per-worker
  // shards and merge on the same key, so the stream is bit-identical at any
  // thread count *and* across fill granularities. nullptr (the default)
  // detaches: the emission site reduces to a single pointer compare and the
  // pass performs no extra work.
  void set_trace(obs::TraceSink* sink, bool per_component = false) noexcept {
    trace_ = sink;
    trace_components_ = sink != nullptr && per_component;
  }

  // Intra-pass parallelism (DESIGN.md §10): water-fill independent
  // contention components on up to `threads` pool participants. Components
  // are link-disjoint, each fill writes only its own members' rates and its
  // own links' scratch slots, and every order-sensitive effect (cache
  // stores, stats, dirty-set handoff, trace emission) happens serially in
  // ascending-component order after the join -- so results, stats and
  // traces are bit-identical to the serial pass at any thread count.
  // threads == 1 or pool == nullptr restores the serial path (the
  // default); threads == 0 uses every pool participant. A pass dispatches
  // only when its to-be-filled components hold at least
  // kMinParallelFillFlows member flows in total; smaller passes fill
  // serially, since one dispatch costs more than the whole fill there.
  void set_parallelism(ThreadPool* pool, unsigned threads) noexcept {
    pool_ = threads == 1 ? nullptr : pool;
    threads_ = threads;
  }
  // Work cutoff for the parallel fill (DESIGN.md §10): member flows summed
  // over the components a pass fills. The cutoff cannot affect results --
  // both paths are bit-identical -- only where the time goes.
  static constexpr std::size_t kMinParallelFillFlows = 1024;

  [[nodiscard]] AllocMode mode() const noexcept { return mode_; }
  [[nodiscard]] FillMode fill_mode() const noexcept { return fill_; }
  // Switch the fill granularity (differential testing). Takes effect on the
  // next allocate() pass; both granularities produce bit-identical output,
  // so switching mid-run is legal (the incremental cache stays valid).
  void set_fill_mode(FillMode fill) noexcept { fill_ = fill; }

  // Flows whose `rate` differs from the value they carried into the last
  // allocate() pass, in span order. This is the dirty set the Simulator
  // uses to patch (rather than rebuild) its completion-time heap when the
  // accounting epoch did not move. Valid until the next allocate() call.
  [[nodiscard]] std::span<Flow* const> rate_changed() const noexcept {
    return rate_changed_;
  }

  // Telemetry: cumulative component-cache behavior (kIncremental only fills
  // components_filled < components; kFullRecompute fills all of them).
  struct Stats {
    std::uint64_t passes = 0;
    std::uint64_t components = 0;         // components seen, cumulative
    std::uint64_t components_reused = 0;  // cache hits (rates restored)
    std::uint64_t components_filled = 0;  // water-filled (miss or full mode)
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
  // Snapshot of one member's allocation inputs plus its converged rate --
  // one contiguous array per record keeps the validation walk and the
  // in-place refresh on a single cache stream.
  struct MemberSnap {
    std::uint64_t id = 0;       // members appear in ascending span order
    double weight = 0.0;        // raw Flow::weight snapshot
    double cap = 0.0;           // valid when has_cap
    double rate = 0.0;          // converged rate
    bool has_cap = false;
  };
  // Cached converged state of one contention component. Referenced from
  // flow_rec_ by (index, generation); bumping `gen` invalidates every
  // outstanding reference in O(1) when the record is recycled. A record
  // whose *membership* still matches is refreshed in place on refill (same
  // slot, same gen, back-pointers untouched) -- the steady churn path.
  struct CompRecord {
    std::uint32_t gen = 0;
    bool in_free_list = false;
    std::uint64_t last_used_pass = 0;
    // Topology::capacity_epoch() at fill time: runtime link-capacity
    // changes (failures / degradation / recovery) conservatively invalidate
    // every cached record.
    std::uint64_t capacity_epoch = 0;
    std::vector<MemberSnap> members;
  };

  static constexpr std::uint32_t kInvalidIndex = 0xffffffffu;

  // Thread-confined working set of one water-fill: the unfrozen member list
  // and its next-round double buffer. One per pool participant
  // (WorkerScratch) so concurrent component fills never share them; the
  // serial path uses slot 0.
  struct FillScratch {
    std::vector<std::uint32_t> unfrozen;
    std::vector<std::uint32_t> next;
  };

  [[nodiscard]] std::uint32_t uf_find(std::uint32_t slot) noexcept;
  // Partitions the members of every to-be-filled component into (route,
  // weight, cap) equivalence classes and builds each component's deduped
  // link list. Serial; output is read-only during the (possibly parallel)
  // fills. See allocate() Phase B2.
  void partition_classes();
  // Progressive filling of fill component `rank` (index into fill_comps_)
  // at class granularity: the working units are the component's classes and
  // converged rates land in cls_rate_. Touches only the component's own
  // links_/class state plus `fs` -- safe to run concurrently for distinct
  // components with distinct scratch.
  void fill_component_class(std::size_t rank, FillScratch& fs);
  // The same canonical fill with every class member as its own unit
  // (reference granularity); converged rates land in member_rate_. Executes
  // bit-identical arithmetic to fill_component_class -- see DESIGN.md §11
  // for the grouping-invariance argument.
  void fill_component_perflow(std::size_t rank, FillScratch& fs);
  // Exact cache validation; on hit restores the cached rates and returns
  // true. Collision-proof: compares member ids positionally plus the
  // recorded weight/cap values bit-for-bit.
  [[nodiscard]] bool try_reuse(const std::uint32_t* members,
                               std::size_t count);
  void store_component(const std::uint32_t* members, std::size_t count);
  // Reclaims records unreferenced by any live component once the slab has
  // grown past 2x the live component count (departed flows leave phantom
  // references behind; the sweep bounds the slab instead of refcounting).
  void maybe_sweep_records(std::size_t live_components);

  const topology::Topology* topo_;
  AllocMode mode_;
  FillMode fill_ = FillMode::kClass;
  Stats stats_;
  std::uint64_t pass_ = 0;
  obs::TraceSink* trace_ = nullptr;  // null => zero-cost emission branch
  bool trace_components_ = false;    // emit kCompFill per filled component
  ThreadPool* pool_ = nullptr;       // null => serial fills (the default)
  unsigned threads_ = 1;

  // --- reusable arenas (allocation-free after warm-up) ---
  topology::LinkScratch<LinkLoad> links_;
  std::vector<ActiveFlow> af_;            // contended flows, span order
  std::vector<std::uint32_t> path_flat_;  // cached dense link indices
  std::vector<std::uint32_t> uf_parent_;  // union-find over af_ slots
  std::vector<std::uint32_t> comp_of_root_;
  std::vector<std::uint32_t> comp_of_;
  std::vector<std::uint32_t> comp_start_;   // comps+1 prefix offsets
  std::vector<std::uint32_t> comp_cursor_;
  std::vector<std::uint32_t> comp_members_; // bucketed slots, span order
  WorkerScratch<FillScratch> fill_scratch_; // per-participant fill arenas
  std::vector<std::uint32_t> fill_comps_;   // components to fill, ascending
  std::vector<std::uint32_t> fill_cands_;   // reuse_candidate per fill comp
  obs::TraceShards comp_shards_;            // parallel kCompFill emission
  std::vector<double> prev_rate_;           // span-parallel rate snapshot
  std::vector<Flow*> rate_changed_;

  // --- equivalence-class partition (Phase B2; DESIGN.md §11) ---
  // Built once per pass over exactly the members of to-be-filled
  // components (cache-reused components never touch it), then read-only
  // during the fills. SoA layout keyed by dense class index.
  std::vector<std::uint32_t> dirty_slots_;      // fill members, rank-major
  std::vector<std::uint64_t> route_key_;        // per dirty slot: bucket key
  std::vector<std::uint32_t> route_start_;      // route-bucket scatter
  std::vector<std::uint32_t> route_cursor_;
  std::vector<std::uint32_t> route_order_;
  std::vector<std::uint32_t> comp_rank_;        // comp id -> fill rank
  std::vector<std::uint32_t> class_of_slot_;    // af_ slot -> class id
  std::uint32_t n_classes_ = 0;
  std::vector<double> cls_weight_;              // clamped effective weight
  std::vector<double> cls_cap_;                 // valid when cls_has_cap_
  std::vector<std::uint8_t> cls_has_cap_;
  std::vector<double> cls_rate_;                // converged class rate
  std::vector<std::uint32_t> cls_count_;        // members in the class
  std::vector<std::uint32_t> cls_path_begin_;   // route links in path_flat_
  std::vector<std::uint32_t> cls_path_end_;
  std::vector<std::uint32_t> cls_rank_;         // owning fill rank
  std::vector<std::uint32_t> rank_class_start_; // ranks+1: classes per rank
  std::vector<std::uint32_t> rank_class_cursor_;
  std::vector<std::uint32_t> rank_classes_;     // class ids bucketed by rank
  std::vector<std::uint32_t> class_member_start_;  // classes+1
  std::vector<std::uint32_t> class_member_cursor_;
  std::vector<std::uint32_t> class_members_;    // slots bucketed by class
  std::vector<std::uint32_t> comp_links_;       // deduped links, rank-major
  std::vector<std::uint32_t> rank_link_start_;  // ranks+1 offsets into ^
  std::vector<double> member_rate_;             // per-slot rates (kPerFlow)

  // --- component record cache (kIncremental) ---
  std::vector<CompRecord> records_;
  std::vector<std::uint32_t> record_free_;
  // Set by try_reuse when a record's member list matched positionally but
  // its values (weights / caps / capacity epoch) did not: store_component
  // refreshes that record in place instead of allocating a fresh slot.
  // Valid only between a try_reuse miss and the store_component that
  // immediately follows it.
  std::uint32_t reuse_candidate_ = kInvalidIndex;
  // Per flow id: record index + generation snapshot ("which record did this
  // flow's component last converge in"). Grows with the simulation's total
  // flow count, like the Simulator's own flow table.
  std::vector<std::uint32_t> flow_rec_;
  std::vector<std::uint32_t> flow_rec_gen_;
};

}  // namespace echelon::netsim
