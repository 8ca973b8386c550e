#include "echelon/echelon_madd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace echelon::ef {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint64_t kSingletonBase = 1ULL << 63;

}  // namespace

// (key, deadline, weight) a flow schedules under *right now*. Cheap: a
// couple of dense vector lookups into the registry. The cache stores the
// resolved triple per flow; control() re-resolves each pass to detect
// late registrations or re-calibrations and rebuilds when anything drifted.
EchelonMaddScheduler::Resolved EchelonMaddScheduler::resolve(
    const netsim::Flow& f) const {
  std::uint64_t key = kSingletonBase | f.id.value();
  SimTime deadline = f.start_time;  // fallback: tardiness == FCT
  double weight = 1.0;
  if (f.spec.group.valid() && registry_ != nullptr &&
      registry_->contains(f.spec.group)) {
    const EchelonFlow& ef = registry_->get(f.spec.group);
    if (const auto d = ef.ideal_finish(f.spec.index_in_group)) {
      key = f.spec.group.value();
      deadline = *d;
      weight = ef.weight();
    }
  }
  return Resolved{key, deadline, weight};
}

bool EchelonMaddScheduler::cache_valid(const netsim::Flow& f) const {
  const std::size_t idx = f.id.value();
  if (idx >= meta_.size() || meta_[idx].slot == kNoSlot) return false;
  const Resolved r = resolve(f);
  const FlowMeta& m = meta_[idx];
  return m.key == r.key && m.deadline == r.deadline && m.route == f.route;
}

void EchelonMaddScheduler::add_to_cache(const netsim::Flow& f) {
  const Resolved r = resolve(f);
  std::uint32_t slot;
  if (const auto it = slot_of_key_.find(r.key); it != slot_of_key_.end()) {
    slot = it->second;
  } else {
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    GroupSlot& g = slots_[slot];
    g.key = r.key;
    g.members.clear();
    slot_of_key_.emplace(r.key, slot);
    groups_by_key_.insert(
        std::lower_bound(groups_by_key_.begin(), groups_by_key_.end(), r.key,
                         [this](std::uint32_t s, std::uint64_t k) {
                           return slots_[s].key < k;
                         }),
        slot);
  }
  GroupSlot& g = slots_[slot];
  g.weight = r.weight;
  // Sorted insertion keeps EDF order without a per-pass sort. upper_bound
  // with exact `<` places equal deadlines after existing ones, i.e. in
  // arrival order -- the same tie order the seed's stable_sort produced.
  const auto pos = std::upper_bound(
      g.members.begin(), g.members.end(), r.deadline,
      [](SimTime d, const CachedMember& m) { return d < m.deadline; });
  g.members.insert(pos, CachedMember{f.id, r.deadline, nullptr});
  const std::size_t idx = f.id.value();
  if (meta_.size() <= idx) meta_.resize(idx + 1);
  meta_[idx] = FlowMeta{slot, r.key, r.deadline, f.route};
  ++cached_members_;
}

void EchelonMaddScheduler::remove_from_cache(const netsim::Flow& f) {
  const std::size_t idx = f.id.value();
  if (idx >= meta_.size() || meta_[idx].slot == kNoSlot) return;
  const std::uint32_t slot = meta_[idx].slot;
  GroupSlot& g = slots_[slot];
  const auto it =
      std::find_if(g.members.begin(), g.members.end(),
                   [&](const CachedMember& m) { return m.id == f.id; });
  if (it != g.members.end()) {
    g.members.erase(it);  // preserves deadline order of the remainder
    --cached_members_;
  }
  if (g.members.empty()) {
    slot_of_key_.erase(g.key);
    const auto kit =
        std::find(groups_by_key_.begin(), groups_by_key_.end(), slot);
    if (kit != groups_by_key_.end()) groups_by_key_.erase(kit);
    free_slots_.push_back(slot);
  }
  meta_[idx].slot = kNoSlot;
}

void EchelonMaddScheduler::on_flow_arrival(netsim::Simulator&,
                                           const netsim::Flow& flow) {
  if (flow.path.empty()) return;  // loopback: never scheduled
  const std::size_t idx = flow.id.value();
  if (idx < meta_.size() && meta_[idx].slot != kNoSlot) return;  // stale id
  add_to_cache(flow);
}

void EchelonMaddScheduler::on_flow_departure(netsim::Simulator&,
                                             const netsim::Flow& flow) {
  remove_from_cache(flow);
}

void EchelonMaddScheduler::rebuild_cache(std::span<netsim::Flow*> active) {
  ++cache_rebuilds_;
  slot_of_key_.clear();
  groups_by_key_.clear();
  free_slots_.clear();
  for (std::size_t i = slots_.size(); i-- > 0;) {
    slots_[i].members.clear();
    free_slots_.push_back(static_cast<std::uint32_t>(i));
  }
  meta_.assign(meta_.size(), FlowMeta{});
  cached_members_ = 0;
  // Insertion in span order reproduces the seed's stable_sort tie order for
  // equal deadlines (the simulator hands flows in ascending-FlowId order).
  for (netsim::Flow* f : active) {
    if (f->path.empty()) continue;
    add_to_cache(*f);
  }
}

// Minimal uniform tardiness t such that, at time `now`, every member can
// finish by deadline + t under the given capacities. Per link, with members
// in deadline order, the earliest-deadline prefix condition gives
//   t >= prefix_bytes_k / cap - (d_k - now)   for every prefix k.
// Returns +inf when a needed link has no capacity. Per-link prefix state
// lives in the epoch-stamped tard_scratch_ arena (one sub-epoch per call).
double EchelonMaddScheduler::min_uniform_tardiness(
    const GroupSlot& g, SimTime now, const detail::ResidualCaps* residual,
    const topology::Topology& topo) {
  tard_scratch_.begin_pass(topo);
  double t = 0.0;
  for (const CachedMember& m : g.members) {  // already deadline-sorted
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

  // --- sync the persistent group cache with the active set -------------------
  // O(active) validation: stamp every active flow into the per-pass id->ptr
  // table and check its resolved (key, deadline) against the cache. Any
  // drift (hook-less caller, late registration, foreign flow ids) triggers
  // one full rebuild; steady-state passes validate and move on.
  flow_ptr_.begin_pass();
  bool consistent = true;
  std::size_t routed = 0;
  for (netsim::Flow* f : active) {
    if (f->path.empty()) {
      f->set_weight(1.0);
      f->clear_rate_cap();
      continue;
    }
    ++routed;
    const std::size_t idx = f->id.value();
    flow_ptr_.ensure_size(idx + 1);
    flow_ptr_.touch(idx) = f;
    if (consistent) consistent = cache_valid(*f);
  }
  // Equal counts + (active ⊆ cache) ⇒ cache == active.
  if (!consistent || routed != cached_members_) rebuild_cache(active);

  // Re-bind simulator flow pointers: the owning flows_ vector may have been
  // reallocated since the previous pass, so the cache stores FlowIds and
  // refreshes pointers from the per-pass table.
  for (const std::uint32_t si : groups_by_key_) {
    for (CachedMember& m : slots_[si].members) {
      m.flow = flow_ptr_.at(m.id.value());
    }
  }

  // --- rank groups by standalone achievable tardiness ------------------------
  // (the Eq. 2 metric, Property 4's SEBF analog)
  order_.assign(groups_by_key_.begin(), groups_by_key_.end());
  for (const std::uint32_t si : order_) {
    GroupSlot& g = slots_[si];
    g.tardiness_standalone = min_uniform_tardiness(g, now, nullptr, topo);
    // Weighted ranking: tardiness scaled by 1/weight, so heavier
    // EchelonFlows sort as if they were further ahead (smallest-first) or
    // further behind (largest-first).
    g.rank_key = config_.use_weights && g.weight > 0.0
                     ? g.tardiness_standalone / g.weight
                     : g.tardiness_standalone;
  }
  const bool smallest_first =
      config_.ranking == InterRanking::kSmallestTardinessFirst;
  // Deterministic total order (rank key, then group key ascending) -- exactly
  // what the seed's stable_sort over the key-ascending std::map produced,
  // but via std::sort, which unlike stable_sort allocates no merge buffer.
  std::sort(order_.begin(), order_.end(),
            [this, smallest_first](std::uint32_t a, std::uint32_t b) {
              const GroupSlot& ga = slots_[a];
              const GroupSlot& gb = slots_[b];
              if (ga.rank_key != gb.rank_key) {
                return smallest_first ? ga.rank_key < gb.rank_key
                                      : ga.rank_key > gb.rank_key;
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
  for (const std::uint32_t si : order_) {
    GroupSlot& g = slots_[si];
    const double tstar = min_uniform_tardiness(g, now, &caps_, topo);
    std::size_t i = 0;
    while (i < g.members.size()) {
      std::size_t j = i + 1;
      while (j < g.members.size() &&
             time_eq(g.members[j].deadline, g.members[i].deadline)) {
        ++j;
      }

      // 1. Pacing rates for level [i, j).
      for (std::size_t k = i; k < j; ++k) {
        netsim::Flow* f = g.members[k].flow;
        double rate = 0.0;
        if (std::isfinite(tstar)) {
          const double horizon = g.members[k].deadline + tstar - now;
          // horizon > 0 by construction (every member bounds t* through the
          // prefix ending at itself); guard against degenerate input anyway.
          rate = horizon > 0.0 ? f->remaining / horizon : kInf;
        }
        rate = std::min(rate, caps_.path_residual(*f));
        f->set_weight(1.0);
        f->set_rate_cap(rate);
        caps_.consume(*f, rate);
      }

      // 2. Work conservation for the level (per-link load accumulated in the
      // epoch-stamped load_scratch_ arena; lambda is a min-fold over the
      // touched links, so touch order does not affect the result).
      if (config_.work_conserving) {
        load_scratch_.begin_pass(topo);
        for (std::size_t k = i; k < j; ++k) {
          const netsim::Flow* f = g.members[k].flow;
          for (LinkId lid : f->path) load_scratch_.touch(lid) += f->remaining;
        }
        double lambda = kInf;
        for (const std::uint32_t li : load_scratch_.touched()) {
          const double bytes = load_scratch_.at(LinkId{li});
          if (bytes <= 0.0) continue;
          lambda = std::min(lambda, caps_.residual(LinkId{li}) / bytes);
        }
        if (std::isfinite(lambda) && lambda > 0.0) {
          for (std::size_t k = i; k < j; ++k) {
            netsim::Flow* f = g.members[k].flow;
            const double extra = f->remaining * lambda;
            if (extra <= 0.0) continue;
            f->set_rate_cap(*f->rate_cap + extra);
            caps_.consume(*f, extra);
          }
        }
      }
      i = j;
    }
  }

  // Final per-flow backfill (rank order, then EDF order within a group):
  // grants capacity the level-proportional pass could not use, e.g. when one
  // member of a level is blocked by a higher-ranked EchelonFlow while the
  // others have idle ports.
  if (config_.work_conserving) {
    for (const std::uint32_t si : order_) {
      for (CachedMember& m : slots_[si].members) {
        const double extra = caps_.path_residual(*m.flow);
        if (extra <= 0.0 || !std::isfinite(extra)) continue;
        m.flow->set_rate_cap(*m.flow->rate_cap + extra);
        caps_.consume(*m.flow, extra);
      }
    }
  }
}

}  // namespace echelon::ef
