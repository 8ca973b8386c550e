// EchelonFlow registry: the bridge between the abstraction and the simulator.
//
// Training-paradigm generators create EchelonFlow descriptors up front
// (arrangement + expected cardinality); at runtime the registry observes
// flow arrivals/departures (via simulator listeners or scheduler hooks),
// binds them to member positions through FlowSpec::group/index_in_group,
// fixes reference times, and aggregates the optimization objectives:
// Eq. 3 (single-EchelonFlow tardiness) and Eq. 4 (sum over EchelonFlows).

#pragma once

#include <string_view>
#include <vector>

#include "common/chunked_store.hpp"
#include "common/ids.hpp"
#include "echelon/echelonflow.hpp"
#include "netsim/simulator.hpp"

namespace echelon::ef {

class Registry {
 public:
  Registry() = default;

  // Declares a new EchelonFlow. The returned id is stamped into
  // FlowSpec::group of every member flow by the workload generator.
  EchelonFlowId create(JobId job, const Arrangement& arrangement,
                       std::string_view label = {}, double weight = 1.0);

  [[nodiscard]] bool contains(EchelonFlowId id) const {
    return id.valid() && id.value() < echelonflows_.size();
  }
  // References stay valid for the registry's lifetime: EchelonFlows never
  // move.
  [[nodiscard]] EchelonFlow& get(EchelonFlowId id) {
    return echelonflows_.at(id.value());
  }
  [[nodiscard]] const EchelonFlow& get(EchelonFlowId id) const {
    return echelonflows_.at(id.value());
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return echelonflows_.size();
  }

  // --- runtime wiring ---------------------------------------------------------

  // Observes a flow entering / leaving the network. Flows whose spec carries
  // no (valid) group are ignored.
  void note_arrival(const netsim::Flow& flow, SimTime now);
  void note_departure(const netsim::Flow& flow, SimTime now);

  // Subscribes the registry to a simulator so it sees every flow under any
  // scheduler (baselines included), enabling like-for-like tardiness
  // measurement. The registry must outlive the simulator run.
  void attach(netsim::Simulator& sim);

  // --- objectives --------------------------------------------------------------

  // Eq. 4: sum of tardiness over all *complete* EchelonFlows, added in
  // creation order. The sum over the longest all-complete prefix is kept
  // (a complete EchelonFlow never changes again), so a call scans only the
  // EchelonFlows from the first incomplete one on. The prefix is advanced
  // lazily: calls are not thread-safe.
  [[nodiscard]] Duration total_tardiness() const;

  // Weighted variant mentioned under Eq. 4.
  [[nodiscard]] Duration weighted_total_tardiness() const;

  // Every EchelonFlow ever created, retired ones included, in creation
  // order.
  [[nodiscard]] std::vector<const EchelonFlow*> all() const;

 private:
  // Extends the complete prefix [0, prefix_end_) and its running sums.
  void advance_complete_prefix() const;

  // By value, in chunks that never move; nothing is ever released.
  ChunkedStore<EchelonFlow> echelonflows_;
  mutable std::size_t prefix_end_ = 0;
  mutable Duration prefix_tardiness_ = 0.0;
  mutable Duration prefix_weighted_tardiness_ = 0.0;
};

}  // namespace echelon::ef
