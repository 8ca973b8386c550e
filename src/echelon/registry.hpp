// EchelonFlow registry: the bridge between the abstraction and the simulator.
//
// Training-paradigm generators create EchelonFlow descriptors up front
// (arrangement + expected cardinality); at runtime the registry observes
// flow arrivals/departures (via simulator listeners or scheduler hooks),
// binds them to member positions through FlowSpec::group/index_in_group,
// fixes reference times, and aggregates the optimization objectives:
// Eq. 3 (single-EchelonFlow tardiness) and Eq. 4 (sum over EchelonFlows).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "echelon/echelonflow.hpp"
#include "netsim/simulator.hpp"

namespace echelon::ef {

class Registry {
 public:
  Registry() = default;

  // Declares a new EchelonFlow. The returned id is stamped into
  // FlowSpec::group of every member flow by the workload generator.
  EchelonFlowId create(JobId job, Arrangement arrangement,
                       std::string label = {}, double weight = 1.0);

  [[nodiscard]] bool contains(EchelonFlowId id) const {
    return id.valid() && id.value() < echelonflows_.size();
  }
  [[nodiscard]] EchelonFlow& get(EchelonFlowId id) {
    return *echelonflows_.at(id.value());
  }
  [[nodiscard]] const EchelonFlow& get(EchelonFlowId id) const {
    return *echelonflows_.at(id.value());
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return echelonflows_.size();
  }

  // Counts the mutations that can give an active flow a deadline it did not
  // have: create() (a late EchelonFlow binds already-active members) and a
  // first-started member fixing an EchelonFlow's reference time. The
  // interval Coordinator reads a moved revision as churn.
  [[nodiscard]] std::uint64_t revision() const noexcept { return revision_; }

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

  std::vector<std::unique_ptr<EchelonFlow>> echelonflows_;
  mutable std::size_t prefix_end_ = 0;
  mutable Duration prefix_tardiness_ = 0.0;
  mutable Duration prefix_weighted_tardiness_ = 0.0;
  std::uint64_t revision_ = 0;
};

}  // namespace echelon::ef
