#include "echelon/coflow_madd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace echelon::ef {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

// Per-link remaining bytes of `members`, into the epoch-stamped load_ arena.
void CoflowMaddScheduler::accumulate_load(
    const topology::Topology& topo, std::span<const detail::Member> members) {
  load_.begin_pass(topo);
  for (const detail::Member& m : members) {
    for (LinkId lid : m.flow->path) load_.touch(lid) += m.flow->remaining;
  }
}

// Completion bound of the load last accumulated, against the residual
// fabric caps_ holds: the time its most loaded link needs. Infinite when
// some needed link is exhausted. A max-fold over the touched links, so touch
// order does not affect the result.
double CoflowMaddScheduler::completion_bound() const {
  double gamma = 0.0;
  for (const std::uint32_t li : load_.touched()) {
    const double bytes = load_.at(LinkId{li});
    const double cap = caps_.residual(LinkId{li});
    if (cap <= 0.0) return kInf;
    gamma = std::max(gamma, bytes / cap);
  }
  return gamma;
}

void CoflowMaddScheduler::control(netsim::Simulator& sim,
                                  std::span<netsim::Flow*> active) {
  const topology::Topology& topo = sim.topology();
  ++stats_.passes;
  ++stats_.full_passes;

  pass_.build(active, [](const netsim::Flow& f) {
    return detail::Keyed{.key = detail::coflow_key(f)};
  });

  // SEBF order: ascending standalone Gamma -- the coflow served alone on an
  // idle fabric, which is what the freshly reset caps_ hold.
  caps_.reset(&topo);
  for (detail::Group& g : pass_.groups()) {
    accumulate_load(topo, pass_.members(g));
    g.rank = completion_bound();
  }
  pass_.rank();

  // MADD pass: pace every flow of the coflow to finish at the (residual)
  // bottleneck completion time.
  for (const std::uint32_t gi : pass_.order()) {
    const std::span<detail::Member> members = pass_.members(pass_.groups()[gi]);
    accumulate_load(topo, members);
    const double gamma = completion_bound();
    for (const detail::Member& m : members) {
      caps_.pace(*m.flow, std::isinf(gamma) || gamma <= 0.0
                              ? 0.0
                              : m.flow->remaining / gamma);
    }
  }

  // Work conservation (as in Varys' backfilling): leftovers go to coflows in
  // SEBF order. First scale each coflow proportionally to remaining bytes
  // (preserving simultaneous finishes where the whole coflow can speed up),
  // then grant any capacity that proportional scaling could not use -- e.g.
  // when one member's port is taken by a higher-ranked coflow -- flow by
  // flow.
  for (const std::uint32_t gi : pass_.order()) {
    caps_.work_conserve(pass_.members(pass_.groups()[gi]));
  }
  for (const std::uint32_t gi : pass_.order()) {
    for (const detail::Member& m : pass_.members(pass_.groups()[gi])) {
      caps_.backfill(*m.flow);
    }
  }
}

}  // namespace echelon::ef
