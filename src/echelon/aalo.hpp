// Non-clairvoyant group scheduling in the style of Aalo (Chowdhury &
// Stoica, SIGCOMM'15 -- "Efficient coflow scheduling without prior
// knowledge"), which the paper cites among the Coflow systems EchelonFlow
// builds on.
//
// No flow sizes, deadlines or arrangements are consulted -- only what is
// observable on the wire: the total bytes each group has *sent so far*.
// Groups are binned into multi-level queues with exponentially growing
// thresholds; lower queues (fewer sent bytes) get strict priority, groups
// within a queue share FIFO-by-first-flow-arrival, and flows of the served
// groups water-fill their ports.
//
// This is the information-oblivious end of the baseline spectrum:
//   SRPT (per-flow, clairvoyant) .. Aalo (group, oblivious)
//   .. Coflow-MADD (group, clairvoyant) .. EchelonFlow-MADD (+ application
//   arrangement knowledge).
//
// Grouping, ranking and the strict-priority grant are the shared
// group-scheduler skeleton (echelon/linkcaps.hpp), with Coflow-MADD's key.
// Only the *persistent* arrival-stamp table is a hash map -- it mutates once
// per group lifetime, not per pass.

#pragma once

#include <cstdint>
#include <unordered_map>

#include "echelon/linkcaps.hpp"
#include "netsim/scheduler.hpp"
#include "netsim/simulator.hpp"

namespace echelon::ef {

struct AaloConfig {
  // First queue holds groups that sent < `base_threshold` bytes; queue k
  // holds < base_threshold * multiplier^k.
  Bytes base_threshold = 10e6;
  double multiplier = 10.0;
  int num_queues = 8;
};

class AaloScheduler final : public netsim::NetworkScheduler {
 public:
  explicit AaloScheduler(AaloConfig config = {}) : config_(config) {}

  void on_flow_arrival(netsim::Simulator& sim,
                       const netsim::Flow& flow) override;
  void control(netsim::Simulator& sim,
               std::span<netsim::Flow*> active) override;

  [[nodiscard]] std::string name() const override { return "aalo"; }

 private:
  AaloConfig config_;
  // group id -> arrival order stamp (FIFO within a queue level).
  std::unordered_map<std::uint64_t, std::uint64_t> group_arrival_;
  std::uint64_t arrival_counter_ = 0;

  // --- reusable per-pass arenas (allocation-free after warm-up) ---
  detail::GroupPass pass_;
  detail::ResidualCaps caps_;
};

}  // namespace echelon::ef
