// Flow model for the fluid (flow-level) network simulation.

#pragma once

#include <optional>
#include <string>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "topology/graph.hpp"

namespace echelon::netsim {

// A flow is considered drained once fewer bytes than this remain. Flow sizes
// in the experiments are >= 1 byte, so a micro-byte of slack only absorbs
// floating-point error.
inline constexpr Bytes kBytesEpsilon = 1e-6;

// Immutable description of a flow, provided at submission time.
struct FlowSpec {
  NodeId src;
  NodeId dst;
  Bytes size = 0.0;

  // Application metadata carried through to schedulers and reports.
  JobId job;                    // owning training job (optional)
  EchelonFlowId group;          // owning EchelonFlow (optional)
  int index_in_group = 0;       // position within the EchelonFlow
  std::string label;            // human-readable tag for traces

  // Structural identity stable across training iterations (same position in
  // the workflow => same signature). Lets the coordinator reuse scheduling
  // decisions over a job's lifetime (paper §5). 0 = no signature.
  std::uint64_t signature = 0;

  // ECMP seed hint for route interning (DESIGN.md §11). When nonzero, the
  // Simulator routes this flow with `route_hint` as the ECMP seed instead of
  // the flow id, so structurally identical flows across training iterations
  // (same signature => same hint) land on the *same* interned route and
  // collapse into one allocator equivalence class. 0 = no hint (per-flow-id
  // seed, the historical behavior).
  std::uint64_t route_hint = 0;
};

// kParked: the flow is known to the simulator but not in the network -- its
// path was severed by a fault (or it was unroutable at submission) and it is
// waiting for recovery. A parked flow holds its materialized `remaining`,
// carries rate 0, and is invisible to the scheduler and allocator until
// resumed (Simulator::resume_flow) or given up on (Simulator::abandon_flow).
enum class FlowState { kActive, kParked, kFinished };

// Live flow state, owned by the Simulator.
struct Flow {
  // Sentinel for `active_index` when the flow is not in the active set.
  static constexpr std::size_t kNotActive = static_cast<std::size_t>(-1);

  FlowId id;
  FlowSpec spec;
  // Directed links traversed: a view of the interned route, not a copy
  // (DESIGN.md §11). Empty for loopback flows.
  topology::PathView path;
  // Interned identity of `path` in the Simulator's RouteTable: flows with
  // equal `route` have bitwise-equal paths, which is what the allocator's
  // equivalence-class fill groups on. The Simulator binds `path` to
  // routes().path(route) (submission, resume, reroute); standalone
  // benchmarks/tests that build flows by hand intern through a RouteTable
  // of their own, or leave `route` invalid, which the allocator then treats
  // as a singleton class.
  RouteId route;

  // Simulator bookkeeping: this flow's slot in Simulator::active_flows_,
  // enabling O(1) swap-and-pop retirement (kNotActive while inactive).
  // Maintained exclusively by the Simulator.
  std::size_t active_index = kNotActive;
  // Simulator bookkeeping: generation stamp tying this flow to its entry in
  // the completion-time heap (DESIGN.md "Event-loop fast path"). An entry
  // whose generation no longer matches is stale and is discarded lazily.
  // 64-bit: the incremental heap patch bumps the generation per rate-changed
  // flow (not per rebuild), so the counter must never wrap.
  std::uint64_t completion_gen = 0;

  FlowState state = FlowState::kActive;
  // Bytes left to transmit *as of the simulator's accounting epoch* (the
  // last reallocation boundary or deadline stamp), not necessarily as of
  // `now()`. The Simulator materializes the up-to-date value on demand as
  // `remaining - rate * (now - epoch)`; between epochs this field is not
  // advanced per event. Outside of `Simulator::run` (at quiescence or at a
  // run deadline) the value is always materialized and exact.
  Bytes remaining = 0.0;
  SimTime start_time = 0.0;     // when the flow entered the network
  SimTime finish_time = kTimeInfinity;
  // True once the flow has actually entered the network (arrival listeners
  // fired, start_time fixed). Flows parked at birth because no route existed
  // enter on their first successful resume instead of at submission.
  bool entered = false;

  // --- control plane ---
  // Weight for weighted max-min sharing (fair default: 1).
  double weight = 1.0;
  // Explicit rate demand set by a scheduler. The allocator never exceeds it.
  // nullopt = uncapped (pure max-min share).
  std::optional<BytesPerSec> rate_cap;

  // --- data plane (recomputed by the allocator) ---
  BytesPerSec rate = 0.0;

  [[nodiscard]] bool finished() const noexcept {
    return state == FlowState::kFinished;
  }
  [[nodiscard]] bool parked() const noexcept {
    return state == FlowState::kParked;
  }
  [[nodiscard]] Duration completion_time() const noexcept {
    return finish_time - start_time;
  }
};

}  // namespace echelon::netsim
