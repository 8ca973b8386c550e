#include "echelon/echelon_madd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace echelon::ef {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint64_t kSingletonBase = 1ULL << 63;

}  // namespace

// (key, deadline) a flow schedules under *right now*. Cheap: a
// couple of dense vector lookups into the registry. Resolved afresh every
// pass, so late registrations and newly known reference times take effect
// on the next pass.
EchelonMaddScheduler::Resolved EchelonMaddScheduler::resolve(
    const netsim::Flow& f) const {
  std::uint64_t key = kSingletonBase | f.id.value();
  SimTime deadline = f.start_time;  // fallback: tardiness == FCT
  if (f.spec.group.valid() && registry_ != nullptr &&
      registry_->contains(f.spec.group)) {
    const EchelonFlow& ef = registry_->get(f.spec.group);
    if (const auto d = ef.ideal_finish(f.spec.index_in_group)) {
      key = f.spec.group.value();
      deadline = *d;
    }
  }
  return Resolved{key, deadline};
}

// Groups the routed flows of `active` into members_, one contiguous
// deadline-sorted range per group. Pass 1 resolves every flow once and
// records its group; counts become offsets; pass 2 places members in span
// order. Span order is ascending FlowId, so the stable sort below leaves
// equal deadlines in FlowId order -- the seed's stable_sort tie order.
void EchelonMaddScheduler::build_groups(std::span<netsim::Flow*> active) {
  groups_.clear();
  routed_.clear();
  routed_group_.clear();
  group_of_ef_.begin_pass();
  if (registry_ != nullptr) group_of_ef_.ensure_size(registry_->size());
  for (netsim::Flow* f : active) {
    if (f->path.empty()) {  // loopback: never network-limited
      f->weight = 1.0;
      f->rate_cap.reset();
      continue;
    }
    const Resolved r = resolve(*f);
    // A singleton key always opens a new group; an EchelonFlow key opens one
    // on its first member this pass.
    std::uint32_t gi = static_cast<std::uint32_t>(groups_.size());
    if ((r.key & kSingletonBase) == 0) gi = group_of_ef_.touch(r.key, gi);
    if (gi == groups_.size()) {
      groups_.push_back(Grp{r.key, 0, 0, 0.0});
    }
    ++groups_[gi].end;  // member count; converted to offsets below
    routed_.push_back(Member{f, r.deadline});
    routed_group_.push_back(gi);
  }
  std::uint32_t running = 0;
  for (Grp& g : groups_) {
    const std::uint32_t count = g.end;
    g.begin = running;
    g.end = running;  // fill cursor; advances to begin + count below
    running += count;
  }
  members_.resize(routed_.size());
  for (std::size_t i = 0; i < routed_.size(); ++i) {
    members_[groups_[routed_group_[i]].end++] = routed_[i];
  }
  // Stable insertion sort on deadline (exact `<`) within each group. Members
  // arrive nearly in deadline order, so this is close to linear.
  for (const Grp& g : groups_) {
    for (std::uint32_t i = g.begin + 1; i < g.end; ++i) {
      const Member m = members_[i];
      std::uint32_t j = i;
      while (j > g.begin && m.deadline < members_[j - 1].deadline) {
        members_[j] = members_[j - 1];
        --j;
      }
      members_[j] = m;
    }
  }
}

// Minimal uniform tardiness t such that, at time `now`, every member can
// finish by deadline + t under the given capacities. Per link, with members
// in deadline order, the earliest-deadline prefix condition gives
//   t >= prefix_bytes_k / cap - (d_k - now)   for every prefix k.
// Returns +inf when a needed link has no capacity. Per-link prefix state
// lives in the epoch-stamped tard_scratch_ arena (one sub-epoch per call).
double EchelonMaddScheduler::min_uniform_tardiness(
    const Grp& g, SimTime now, const detail::ResidualCaps* residual,
    const topology::Topology& topo) {
  tard_scratch_.begin_pass(topo);
  double t = 0.0;
  for (std::uint32_t i = g.begin; i < g.end; ++i) {  // deadline-sorted
    const Member& m = members_[i];
    for (LinkId lid : m.flow->path) {
      const bool first = !tard_scratch_.active(lid);
      PerLink& pl = tard_scratch_.touch(lid);
      if (first) {
        pl.cap = residual != nullptr ? residual->residual(lid)
                                     : topo.link(lid).capacity;
      }
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
  // shortest-first sense.
  order_.clear();
  for (std::uint32_t gi = 0; gi < groups_.size(); ++gi) {
    groups_[gi].tardiness =
        min_uniform_tardiness(groups_[gi], now, nullptr, topo);
    order_.push_back(gi);
  }
  // Deterministic total order (tardiness, then group key ascending; keys are
  // unique) -- exactly what the seed's stable_sort over the key-ascending
  // std::map produced, but via std::sort, which unlike stable_sort allocates
  // no merge buffer.
  std::sort(order_.begin(), order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              const Grp& ga = groups_[a];
              const Grp& gb = groups_[b];
              if (ga.tardiness != gb.tardiness) {
                return ga.tardiness < gb.tardiness;
              }
              return ga.key < gb.key;
            });

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
  caps_.reset(&topo);
  for (const std::uint32_t gi : order_) {
    const Grp& g = groups_[gi];
    const double tstar = min_uniform_tardiness(g, now, &caps_, topo);
    std::uint32_t i = g.begin;
    while (i < g.end) {
      std::uint32_t j = i + 1;
      while (j < g.end &&
             time_eq(members_[j].deadline, members_[i].deadline)) {
        ++j;
      }

      // 1. Pacing rates for level [i, j).
      for (std::uint32_t k = i; k < j; ++k) {
        netsim::Flow* f = members_[k].flow;
        double rate = 0.0;
        if (std::isfinite(tstar)) {
          const double horizon = members_[k].deadline + tstar - now;
          // horizon > 0 by construction (every member bounds t* through the
          // prefix ending at itself); guard against degenerate input anyway.
          rate = horizon > 0.0 ? f->remaining / horizon : kInf;
        }
        rate = std::min(rate, caps_.path_residual(*f));
        f->weight = 1.0;
        f->rate_cap = rate;
        caps_.consume(*f, rate);
      }

      // 2. Work conservation for the level (per-link load accumulated in the
      // epoch-stamped load_scratch_ arena; lambda is a min-fold over the
      // touched links, so touch order does not affect the result).
      load_scratch_.begin_pass(topo);
      for (std::uint32_t k = i; k < j; ++k) {
        const netsim::Flow* f = members_[k].flow;
        for (LinkId lid : f->path) load_scratch_.touch(lid) += f->remaining;
      }
      double lambda = kInf;
      for (const std::uint32_t li : load_scratch_.touched()) {
        const double bytes = load_scratch_.at(LinkId{li});
        if (bytes <= 0.0) continue;
        lambda = std::min(lambda, caps_.residual(LinkId{li}) / bytes);
      }
      if (std::isfinite(lambda) && lambda > 0.0) {
        for (std::uint32_t k = i; k < j; ++k) {
          netsim::Flow* f = members_[k].flow;
          const double extra = f->remaining * lambda;
          if (extra <= 0.0) continue;
          f->rate_cap = *f->rate_cap + extra;
          caps_.consume(*f, extra);
        }
      }
      i = j;
    }
  }

  // Final per-flow backfill (rank order, then EDF order within a group):
  // grants capacity the level-proportional pass could not use, e.g. when one
  // member of a level is blocked by a higher-ranked EchelonFlow while the
  // others have idle ports.
  for (const std::uint32_t gi : order_) {
    const Grp& g = groups_[gi];
    for (std::uint32_t i = g.begin; i < g.end; ++i) {
      netsim::Flow* f = members_[i].flow;
      const double extra = caps_.path_residual(*f);
      if (extra <= 0.0 || !std::isfinite(extra)) continue;
      f->rate_cap = *f->rate_cap + extra;
      caps_.consume(*f, extra);
    }
  }
}

}  // namespace echelon::ef
