// EchelonFlow registry: the bridge between the abstraction and the simulator.
//
// Training-paradigm generators create EchelonFlow descriptors up front
// (arrangement + expected cardinality); at runtime the registry observes
// flow arrivals/departures (via simulator listeners or scheduler hooks),
// binds them to member positions through FlowSpec::group/index_in_group,
// fixes reference times, and aggregates the optimization objectives:
// Eq. 3 (single-EchelonFlow tardiness) and Eq. 4 (sum over EchelonFlows).

#pragma once

#include <functional>
#include <string_view>
#include <utility>
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

  // True for every id create() returned, released ones included.
  [[nodiscard]] bool contains(EchelonFlowId id) const {
    return id.valid() && id.value() < echelonflows_.size();
  }
  // A held EchelonFlow; throws std::out_of_range for a released one. A
  // reference stays valid until its EchelonFlow is released: EchelonFlows
  // never move.
  [[nodiscard]] EchelonFlow& get(EchelonFlowId id) {
    return echelonflows_.at(held_index(id));
  }
  [[nodiscard]] const EchelonFlow& get(EchelonFlowId id) const {
    return echelonflows_.at(held_index(id));
  }
  // EchelonFlows ever created, released ones included.
  [[nodiscard]] std::size_t size() const noexcept {
    return echelonflows_.size();
  }
  // EchelonFlows released so far: ids [0, released()) are gone.
  [[nodiscard]] std::size_t released() const noexcept { return released_; }

  // --- release ----------------------------------------------------------------

  // Retires EchelonFlow `id` (EchelonFlow::retire, which throws unless it is
  // complete), then releases every EchelonFlow from the release cursor on
  // that is complete and retired, in creation order, stopping at the first
  // that is not. Each release calls the release listeners and then drops
  // the record; a full chunk of released records is freed.
  void retire(EchelonFlowId id);

  // Called once per released EchelonFlow, in creation order, just before
  // its record goes: the last chance to read its tardiness.
  using ReleaseListener = std::function<void(const EchelonFlow&)>;
  void add_release_listener(ReleaseListener cb) {
    release_listeners_.push_back(std::move(cb));
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

  // Eq. 4: sum of tardiness over all *complete* EchelonFlows, released ones
  // included, added in creation order. The sum over the longest
  // all-complete prefix is kept (a complete EchelonFlow never changes
  // again, and the prefix always covers the released ones), so a call scans
  // only the EchelonFlows from the first incomplete one on. The prefix is
  // advanced lazily: calls are not thread-safe.
  [[nodiscard]] Duration total_tardiness() const;

  // Weighted variant mentioned under Eq. 4.
  [[nodiscard]] Duration weighted_total_tardiness() const;

  // The EchelonFlows still held, ids [released(), size()), in creation
  // order. Retired ones the release cursor has not reached are included.
  [[nodiscard]] std::vector<const EchelonFlow*> all() const;

 private:
  // `id`'s index, checked not to be released (the schedulers call get() for
  // every active flow on every pass, so the check stays inline).
  [[nodiscard]] std::size_t held_index(EchelonFlowId id) const {
    if (id.value() < released_) throw_released(id);
    return id.value();
  }
  [[noreturn]] static void throw_released(EchelonFlowId id);
  // Extends the complete prefix [0, prefix_end_) and its running sums.
  void advance_complete_prefix() const;

  // By value, in chunks that never move; released records are retired from
  // the store, which frees each chunk once all of its records are.
  ChunkedStore<EchelonFlow> echelonflows_;
  std::size_t released_ = 0;
  std::vector<ReleaseListener> release_listeners_;
  mutable std::size_t prefix_end_ = 0;
  mutable Duration prefix_tardiness_ = 0.0;
  mutable Duration prefix_weighted_tardiness_ = 0.0;
};

}  // namespace echelon::ef
