#include "echelon/echelon_madd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace echelon::ef {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

// (key, deadline) a flow schedules under *right now*. Cheap: a
// couple of dense vector lookups into the registry. Resolved afresh every
// pass, so late registrations and newly known reference times take effect
// on the next pass.
detail::Keyed EchelonMaddScheduler::resolve(const netsim::Flow& f) const {
  std::uint64_t key = detail::kSingletonKey | f.id.value();
  SimTime deadline = f.start_time;  // fallback: tardiness == FCT
  if (f.spec.group.valid() && registry_ != nullptr &&
      registry_->contains(f.spec.group)) {
    const EchelonFlow& ef = registry_->get(f.spec.group);
    if (const auto d = ef.ideal_finish(f.spec.index_in_group)) {
      key = f.spec.group.value();
      deadline = *d;
    }
  }
  return detail::Keyed{key, deadline};
}

// Groups the routed flows of `active`, one contiguous deadline-sorted range
// per group. Span order is ascending FlowId, so the stable sort below leaves
// equal deadlines in FlowId order -- the seed's stable_sort tie order.
void EchelonMaddScheduler::build_groups(std::span<netsim::Flow*> active) {
  pass_.build(active, [this](const netsim::Flow& f) { return resolve(f); });
  // Stable insertion sort on deadline (exact `<`) within each group. Members
  // arrive nearly in deadline order, so this is close to linear.
  for (const detail::Group& g : pass_.groups()) {
    const std::span<detail::Member> members = pass_.members(g);
    for (std::size_t i = 1; i < members.size(); ++i) {
      const detail::Member m = members[i];
      std::size_t j = i;
      while (j > 0 && m.deadline < members[j - 1].deadline) {
        members[j] = members[j - 1];
        --j;
      }
      members[j] = m;
    }
  }
}

// Minimal uniform tardiness t such that, at time `now`, every member can
// finish by deadline + t on the residual fabric caps_ holds. Per link, with members
// in deadline order, the earliest-deadline prefix condition gives
//   t >= prefix_bytes_k / cap - (d_k - now)   for every prefix k.
// Returns +inf when a needed link has no capacity. Per-link prefix state
// lives in the epoch-stamped tard_scratch_ arena (one sub-epoch per call).
double EchelonMaddScheduler::min_uniform_tardiness(
    std::span<const detail::Member> members, SimTime now,
    const topology::Topology& topo) {
  tard_scratch_.begin_pass(topo);
  double t = 0.0;
  for (const detail::Member& m : members) {  // deadline-sorted
    for (LinkId lid : m.flow->path) {
      const bool first = !tard_scratch_.active(lid);
      PerLink& pl = tard_scratch_.touch(lid);
      if (first) pl.cap = caps_.residual(lid);
      pl.prefix_bytes += m.flow->remaining;
      if (pl.cap <= 0.0) return kInf;
      t = std::max(t, pl.prefix_bytes / pl.cap - (m.deadline - now));
    }
  }
  return t;
}

void EchelonMaddScheduler::control(netsim::Simulator& sim,
                                   std::span<netsim::Flow*> active) {
  const topology::Topology& topo = sim.topology();
  const SimTime now = sim.now();
  ++stats_.passes;
  ++stats_.full_passes;

  build_groups(active);

  // --- rank groups by standalone achievable tardiness ------------------------
  // (the Eq. 2 metric, Property 4's SEBF analog), smallest first: clearing
  // the least-behind EchelonFlow first minimizes the Eq. 4 sum in the
  // shortest-first sense. Ties break on the group key. Standalone: the
  // freshly reset caps_ hold the idle fabric.
  caps_.reset(&topo);
  for (detail::Group& g : pass_.groups()) {
    g.rank = min_uniform_tardiness(pass_.members(g), now, topo);
  }
  pass_.rank();

  // --- MADD pass: pace member j to deadline d_j + t* -------------------------
  // Groups are served in rank order against residual capacity. Within a
  // group, members are processed one *deadline level* at a time (a level =
  // maximal run of equal deadlines, i.e. one Coflow stage):
  //   1. every member of the level gets its pacing rate remaining/horizon,
  //   2. (work conservation) leftover capacity is immediately granted to the
  //      level, scaled proportionally to remaining bytes so tied flows keep
  //      finishing together.
  // Backfilling level-by-level preserves EDF priority: the earliest deadline
  // absorbs slack before any later deadline sees it, which on a single
  // bottleneck reproduces full-rate EDF exactly. With a single level (Eq. 5
  // arrangement) the pass degenerates to Coflow-MADD (Property 2).
  for (const std::uint32_t gi : pass_.order()) {
    const std::span<const detail::Member> members =
        pass_.members(pass_.groups()[gi]);
    const double tstar = min_uniform_tardiness(members, now, topo);
    std::size_t i = 0;
    while (i < members.size()) {
      std::size_t j = i + 1;
      while (j < members.size() &&
             time_eq(members[j].deadline, members[i].deadline)) {
        ++j;
      }
      // 1. Pacing rates for level [i, j).
      for (std::size_t k = i; k < j; ++k) {
        double rate = 0.0;
        if (std::isfinite(tstar)) {
          const double horizon = members[k].deadline + tstar - now;
          // horizon > 0 by construction (every member bounds t* through the
          // prefix ending at itself); guard against degenerate input anyway.
          rate = horizon > 0.0 ? members[k].flow->remaining / horizon : kInf;
        }
        caps_.pace(*members[k].flow, rate);
      }
      // 2. Work conservation for the level.
      caps_.work_conserve(members.subspan(i, j - i));
      i = j;
    }
  }

  // Final per-flow backfill (rank order, then EDF order within a group):
  // grants capacity the level-proportional pass could not use, e.g. when one
  // member of a level is blocked by a higher-ranked EchelonFlow while the
  // others have idle ports.
  for (const std::uint32_t gi : pass_.order()) {
    for (const detail::Member& m : pass_.members(pass_.groups()[gi])) {
      caps_.backfill(*m.flow);
    }
  }
}

}  // namespace echelon::ef
