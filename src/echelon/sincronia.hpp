// Sincronia-style coflow ordering (Agarwal et al., SIGCOMM'18), cited by
// the paper among the Coflow schedulers EchelonFlow generalizes.
//
// Sincronia's key result: a good *order* plus any work-conserving,
// order-respecting rate allocation is a 4-approximation for average coflow
// completion time. The order comes from BSSI (Bottleneck-Select-Scale-
// Iterate): repeatedly find the most-bottlenecked port, schedule the coflow
// with the largest remaining bytes on that port *last*, remove it, iterate.
// Rates then water-fill greedily in order.
//
// Included as a second clairvoyant Coflow baseline beside Varys-style
// SEBF+MADD: it optimizes average CCT rather than per-coflow pacing.
// Every control() pass rebuilds the BSSI order over the whole active set.

#pragma once

#include "echelon/linkcaps.hpp"
#include "netsim/scheduler.hpp"
#include "netsim/simulator.hpp"

namespace echelon::ef {

class SincroniaScheduler final : public netsim::NetworkScheduler {
 public:
  void control(netsim::Simulator& sim,
               std::span<netsim::Flow*> active) override;

  [[nodiscard]] std::string name() const override { return "sincronia"; }

 private:
  // Arena-backed residual port state (allocation-free after warm-up). The
  // BSSI ordering itself keeps its per-pass hash maps: its bottleneck argmax
  // ties break on map iteration order, so converting it to dense touched
  // lists would silently change schedules -- deferred until goldens bless a
  // deterministic tie-break.
  detail::ResidualCaps caps_;
};

}  // namespace echelon::ef
