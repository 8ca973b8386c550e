// The group-scheduler skeleton shared by the baselines and EchelonFlow-MADD
// (DESIGN.md §5). Coflow-MADD, Aalo and EchelonFlow-MADD all group the
// active flows, rank the groups, pace each flow against the residual
// capacity, then work-conserve and backfill (Property 4 adapts Coflow-MADD,
// and Property 2 makes a Coflow the special case of an EchelonFlow); SRPT
// ranks flows its own way, Sincronia orders GroupPass's groups by BSSI, and
// both grant the residual in strict priority. Only the group key, the rank
// metric and the pacing deadline differ, so the steps live here once:
//
//   * GroupPass -- the grouping pass and the group ranking;
//   * ResidualCaps -- residual link capacity and the rate grants against it.
//
// Every step keeps the floating-point operation order and tie-breaks of the
// seed schedulers, so decisions are bit-identical to the seed references in
// tests/test_dense_equivalence.cpp.
//
// Arena-backed: per-link state is a dense, epoch-stamped array indexed by
// LinkId and the group index a dense array indexed by group id (see
// common/scratch.hpp); reset() and build() re-arm them in O(1), so
// steady-state passes are allocation-free. A link that was never consumed
// this pass reads as its full (current) capacity straight from the
// topology, so runtime capacity changes are picked up automatically.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/scratch.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "netsim/flow.hpp"
#include "topology/dense.hpp"
#include "topology/graph.hpp"

namespace echelon::ef::detail {

// Flows outside any group form singleton groups, keyed by their FlowId with
// this bit set. Group ids never reach it.
inline constexpr std::uint64_t kSingletonKey = 1ULL << 63;

// The Coflow key: the flow's group id, or its singleton key.
[[nodiscard]] inline std::uint64_t coflow_key(const netsim::Flow& f) {
  return f.spec.group.valid() ? f.spec.group.value()
                              : kSingletonKey | f.id.value();
}

// A loopback flow is never network-limited: it gets weight 1 and no cap.
// Returns whether `f` is one, so callers skip it.
inline bool reset_loopback(netsim::Flow& f) {
  if (!f.path.empty()) return false;
  f.weight = 1.0;
  f.rate_cap.reset();
  return true;
}

struct Member {
  netsim::Flow* flow = nullptr;
  SimTime deadline = 0.0;  // pacing deadline (EchelonFlow-MADD only)
};

// What a scheduler's key function tells the grouping pass about a flow.
struct Keyed {
  std::uint64_t key = 0;
  SimTime deadline = 0.0;
};

// One group of a pass: GroupPass::members(g) is its [begin, end) range.
// Groups rank by (rank, tie, key), smallest first; keys are unique.
struct Group {
  std::uint64_t key = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  double rank = 0.0;      // the scheduler's rank metric
  std::uint64_t tie = 0;  // second rank key (Aalo's arrival stamp)
};

class GroupPass {
 public:
  // Groups the routed flows of `active` by `key_of(flow)` (a Keyed).
  // Loopback flows are reset and skipped. Groups come out in first-appearance
  // order and each group's members in span order: pass 1 finds every flow's
  // group through a dense index keyed by group id (a singleton key always
  // opens a new group) and counts members; counts become offsets; pass 2
  // places the members into one flat arena. The index grows to the largest
  // group id seen; group ids are registry-issued, so it is bounded by the
  // registry.
  template <typename KeyOf>
  void build(std::span<netsim::Flow*> active, KeyOf&& key_of) {
    groups_.clear();
    routed_.clear();
    routed_group_.clear();
    index_.begin_pass();
    for (netsim::Flow* f : active) {
      if (reset_loopback(*f)) continue;
      const Keyed k = key_of(*f);
      auto gi = static_cast<std::uint32_t>(groups_.size());
      if ((k.key & kSingletonKey) == 0) {
        index_.ensure_size(k.key + 1);
        gi = index_.touch(k.key, gi);
      }
      if (gi == groups_.size()) groups_.push_back(Group{.key = k.key});
      ++groups_[gi].end;  // member count; converted to offsets below
      routed_.push_back(Member{f, k.deadline});
      routed_group_.push_back(gi);
    }
    std::uint32_t running = 0;
    for (Group& g : groups_) {
      const std::uint32_t count = g.end;
      g.begin = running;
      g.end = running;  // fill cursor; advances to begin + count below
      running += count;
    }
    members_.resize(routed_.size());
    for (std::size_t i = 0; i < routed_.size(); ++i) {
      members_[groups_[routed_group_[i]].end++] = routed_[i];
    }
  }

  // Fills order() with every group, smallest (rank, tie, key) first. That
  // is a total order, so std::sort -- which, unlike stable_sort, allocates
  // no merge buffer -- gives the tie order the seed's stable_sort over a
  // key-ascending std::map gave.
  void rank() {
    order_.clear();
    for (std::uint32_t gi = 0; gi < groups_.size(); ++gi) order_.push_back(gi);
    std::sort(order_.begin(), order_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                const Group& ga = groups_[a];
                const Group& gb = groups_[b];
                if (ga.rank != gb.rank) return ga.rank < gb.rank;
                if (ga.tie != gb.tie) return ga.tie < gb.tie;
                return ga.key < gb.key;
              });
  }

  [[nodiscard]] std::vector<Group>& groups() noexcept { return groups_; }
  [[nodiscard]] std::span<Member> members(const Group& g) noexcept {
    return {members_.data() + g.begin, g.end - g.begin};
  }
  // Group indices in rank order, as rank() left them.
  [[nodiscard]] const std::vector<std::uint32_t>& order() const noexcept {
    return order_;
  }

 private:
  EpochScratch<std::uint32_t> index_;  // group id -> groups_ index
  std::vector<Group> groups_;
  std::vector<Member> routed_;               // routed flows in span order
  std::vector<std::uint32_t> routed_group_;  // groups_ index per routed_
  std::vector<Member> members_;              // flat, grouped
  std::vector<std::uint32_t> order_;
};

class ResidualCaps {
 public:
  ResidualCaps() = default;
  // Convenience for one-shot use; long-lived schedulers should hold a member
  // and call reset() once per control() pass instead.
  explicit ResidualCaps(const topology::Topology* topo) { reset(topo); }

  // Re-arms the table: every link is back to full capacity. O(1) after the
  // arena has grown to the topology's link count.
  void reset(const topology::Topology* topo) {
    topo_ = topo;
    scratch_.begin_pass(*topo);
  }

  [[nodiscard]] double residual(LinkId lid) const {
    const double* r = scratch_.find(lid);
    return r != nullptr ? *r : topo_->link(lid).capacity;
  }

  // Smallest residual along a flow's path (infinity for empty paths).
  [[nodiscard]] double path_residual(const netsim::Flow& f) const {
    double r = std::numeric_limits<double>::infinity();
    for (LinkId lid : f.path) r = std::min(r, residual(lid));
    return r;
  }

  void consume(const netsim::Flow& f, double rate) {
    if (rate <= 0.0) return;
    for (LinkId lid : f.path) {
      double& r = scratch_.touch(lid, topo_->link(lid).capacity);
      r = std::max(0.0, r - rate);
    }
  }

  // Pacing: caps `f` at `rate`, or at its path's residual if that is less.
  void pace(netsim::Flow& f, double rate) {
    rate = std::min(rate, path_residual(f));
    f.weight = 1.0;
    f.rate_cap = rate;
    consume(f, rate);
  }

  // Strict priority: caps `f` at its path's whole residual (0 if unbounded).
  void grant_residual(netsim::Flow& f) {
    const double rate = path_residual(f);
    f.weight = 1.0;
    f.rate_cap = std::isfinite(rate) ? rate : 0.0;
    consume(f, *f.rate_cap);
  }

  // Proportional work conservation: raises every member's cap by
  // remaining * lambda, lambda the largest factor every link the members
  // cross can still carry, so members that finish together keep doing so.
  // Per-link load accumulates in the epoch-stamped load_ arena; lambda is a
  // min-fold over the touched links, so touch order does not matter.
  void work_conserve(std::span<const Member> members) {
    load_.begin_pass(*topo_);
    for (const Member& m : members) {
      for (LinkId lid : m.flow->path) load_.touch(lid) += m.flow->remaining;
    }
    double lambda = std::numeric_limits<double>::infinity();
    for (const std::uint32_t li : load_.touched()) {
      const double bytes = load_.at(LinkId{li});
      if (bytes <= 0.0) continue;
      lambda = std::min(lambda, residual(LinkId{li}) / bytes);
    }
    if (!std::isfinite(lambda) || lambda <= 0.0) return;
    for (const Member& m : members) {
      const double extra = m.flow->remaining * lambda;
      if (extra <= 0.0) continue;
      m.flow->rate_cap = *m.flow->rate_cap + extra;
      consume(*m.flow, extra);
    }
  }

  // Backfill: adds whatever residual is left on `f`'s path to its cap.
  void backfill(netsim::Flow& f) {
    const double extra = path_residual(f);
    if (extra <= 0.0 || !std::isfinite(extra)) return;
    f.rate_cap = *f.rate_cap + extra;
    consume(f, extra);
  }

 private:
  const topology::Topology* topo_ = nullptr;
  topology::LinkScratch<double> scratch_;
  topology::LinkScratch<double> load_;  // work_conserve's per-link bytes
};

}  // namespace echelon::ef::detail
