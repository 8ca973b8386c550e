#include "echelon/coflow_madd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace echelon::ef {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint64_t kSingletonBase = 1ULL << 63;

[[nodiscard]] std::uint64_t group_key(const netsim::Flow& f) {
  return f.spec.group.valid() ? f.spec.group.value()
                              : kSingletonBase | f.id.value();
}

}  // namespace

// Standalone completion bound: served alone on an idle fabric, the coflow
// cannot finish faster than its most loaded link allows. Per-link load
// accumulates in the epoch-stamped load_ arena; gamma is a max-fold over the
// touched links, so touch order does not affect the result.
double CoflowMaddScheduler::standalone_gamma(const topology::Topology& topo,
                                             const Grp& g) {
  load_.begin_pass(topo);
  for (std::uint32_t i = g.begin; i < g.end; ++i) {
    const netsim::Flow* f = members_[i];
    for (LinkId lid : f->path) load_.touch(lid) += f->remaining;
  }
  double gamma = 0.0;
  for (const std::uint32_t li : load_.touched()) {
    const double bytes = load_.at(LinkId{li});
    const double cap = topo.link(LinkId{li}).capacity;
    gamma = std::max(gamma, cap > 0.0 ? bytes / cap : kInf);
  }
  return gamma;
}

// Completion bound of the per-link load last accumulated in load_, against
// the residual fabric left by higher-priority coflows. Infinite when some
// needed link is exhausted.
double CoflowMaddScheduler::residual_gamma() {
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

  // --- group by coflow id ----------------------------------------------------
  // Two-pass counting into a flat member arena: pass 1 counts members per
  // key (epoch-stamped open-addressing map, no node allocations), pass 2
  // places flows in span order, so intra-coflow order matches the seed's
  // std::map-of-vectors exactly.
  groups_.clear();
  key_slots_.begin_pass(active.size());
  std::size_t routed = 0;
  for (netsim::Flow* f : active) {
    if (f->path.empty()) {  // loopback: never network-limited
      f->weight = 1.0;
      f->rate_cap.reset();
      continue;
    }
    ++routed;
    bool inserted = false;
    std::uint32_t& slot = key_slots_.find_or_insert(group_key(*f), inserted);
    if (inserted) {
      slot = static_cast<std::uint32_t>(groups_.size());
      groups_.push_back(Grp{group_key(*f), 0, 0, 0.0});
    }
    ++groups_[slot].end;  // member count; converted to offsets below
  }
  members_.resize(routed);
  std::uint32_t running = 0;
  for (Grp& g : groups_) {
    const std::uint32_t count = g.end;
    g.begin = running;
    g.end = running;  // fill cursor; advances to begin + count below
    running += count;
  }
  for (netsim::Flow* f : active) {
    if (f->path.empty()) continue;
    const std::uint32_t slot = *key_slots_.find(group_key(*f));
    members_[groups_[slot].end++] = f;
  }

  // SEBF order: ascending standalone Gamma, key as deterministic tie-break
  // (reproducing the seed's stable_sort over a key-ascending std::map, via
  // allocation-free std::sort).
  order_.clear();
  for (std::uint32_t i = 0; i < groups_.size(); ++i) {
    groups_[i].gamma_standalone = standalone_gamma(topo, groups_[i]);
    order_.push_back(i);
  }
  std::sort(order_.begin(), order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              if (groups_[a].gamma_standalone != groups_[b].gamma_standalone) {
                return groups_[a].gamma_standalone < groups_[b].gamma_standalone;
              }
              return groups_[a].key < groups_[b].key;
            });

  // MADD pass: pace every flow of the coflow to finish at the (residual)
  // bottleneck completion time.
  caps_.reset(&topo);
  for (const std::uint32_t gi : order_) {
    const Grp& g = groups_[gi];
    // Re-accumulate this group's per-link load (residual_gamma folds over
    // the load_ arena the accumulation below leaves behind).
    load_.begin_pass(topo);
    for (std::uint32_t i = g.begin; i < g.end; ++i) {
      const netsim::Flow* f = members_[i];
      for (LinkId lid : f->path) load_.touch(lid) += f->remaining;
    }
    const double gamma = residual_gamma();
    for (std::uint32_t i = g.begin; i < g.end; ++i) {
      netsim::Flow* f = members_[i];
      double rate = std::isinf(gamma) || gamma <= 0.0 ? 0.0
                                                      : f->remaining / gamma;
      rate = std::min(rate, caps_.path_residual(*f));  // numerical safety
      f->weight = 1.0;
      f->rate_cap = rate;
      caps_.consume(*f, rate);
    }
  }

  // Work conservation (as in Varys' backfilling): leftovers go to coflows in
  // SEBF order. First scale each coflow proportionally to remaining bytes
  // (preserving simultaneous finishes where the whole coflow can speed up),
  // then grant any capacity that proportional scaling could not use -- e.g.
  // when one member's port is taken by a higher-ranked coflow -- flow by
  // flow.
  for (const std::uint32_t gi : order_) {
    const Grp& g = groups_[gi];
    load_.begin_pass(topo);
    for (std::uint32_t i = g.begin; i < g.end; ++i) {
      const netsim::Flow* f = members_[i];
      for (LinkId lid : f->path) load_.touch(lid) += f->remaining;
    }
    double lambda = kInf;
    for (const std::uint32_t li : load_.touched()) {
      const double bytes = load_.at(LinkId{li});
      if (bytes <= 0.0) continue;
      lambda = std::min(lambda, caps_.residual(LinkId{li}) / bytes);
    }
    if (!std::isfinite(lambda) || lambda < 0.0) lambda = 0.0;
    for (std::uint32_t i = g.begin; i < g.end; ++i) {
      netsim::Flow* f = members_[i];
      const double extra = f->remaining * lambda;
      if (extra <= 0.0) continue;
      f->rate_cap = *f->rate_cap + extra;
      caps_.consume(*f, extra);
    }
  }
  for (const std::uint32_t gi : order_) {
    const Grp& g = groups_[gi];
    for (std::uint32_t i = g.begin; i < g.end; ++i) {
      netsim::Flow* f = members_[i];
      const double extra = caps_.path_residual(*f);
      if (extra <= 0.0 || !std::isfinite(extra)) continue;
      f->rate_cap = *f->rate_cap + extra;
      caps_.consume(*f, extra);
    }
  }
}

}  // namespace echelon::ef
