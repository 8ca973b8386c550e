#include "netsim/allocator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/scatter.hpp"

namespace echelon::netsim {

std::uint32_t RateAllocator::uf_find(std::uint32_t slot) noexcept {
  // Path halving: each step links a node to its grandparent, flattening the
  // tree as a side effect of the lookup.
  while (uf_parent_[slot] != slot) {
    uf_parent_[slot] = uf_parent_[uf_parent_[slot]];
    slot = uf_parent_[slot];
  }
  return slot;
}

void RateAllocator::allocate(std::span<Flow*> flows, SimTime now) {
  ++pass_;
  ++stats_.passes;

  // Per-round link state, stamped only for links that carry at least one
  // flow (lazy epoch reset; no per-pass map rebuild).
  links_.begin_pass(*topo_);
  af_.clear();
  path_flat_.clear();
  uf_parent_.clear();
  prev_rate_.clear();
  rate_changed_.clear();

  // Snapshot incoming rates so the pass can report exactly which flows the
  // reallocation actually changed (the Simulator's heap-patch dirty set).
  for (const Flow* f : flows) prev_rate_.push_back(f->rate);

  // --- Phase A: scan. Classify trivial flows, build the contended flow
  // list, accumulate per-link loads, and thread the union-find through the
  // per-link owner slots. ---
  for (Flow* f : flows) {
    if (f->finished()) {
      f->rate = 0.0;
      continue;
    }
    f->rate = 0.0;
    // Zero-size or zero-cap flows are trivially done / stalled.
    if (f->rate_cap && *f->rate_cap <= 0.0) continue;
    // A flow with an empty path (src == dst, e.g. loopback shard exchange)
    // is never network-limited; grant its cap or effectively-infinite rate.
    if (f->path.empty()) {
      f->rate = f->rate_cap ? *f->rate_cap
                            : std::numeric_limits<double>::infinity();
      continue;
    }
    const auto slot = static_cast<std::uint32_t>(af_.size());
    // Clamp degenerate weights: a zero/negative weight used to divide by
    // zero in the water level (and trip the unfrozen_weight assert).
    const double w = f->weight > kMinFlowWeight ? f->weight : kMinFlowWeight;
    const auto begin = static_cast<std::uint32_t>(path_flat_.size());
    uf_parent_.push_back(slot);
    for (LinkId lid : f->path) {
      path_flat_.push_back(static_cast<std::uint32_t>(lid.value()));
      LinkLoad& ll = links_.touch(
          lid, LinkLoad{topo_->link(lid).capacity, 0.0, slot});
      ll.unfrozen_weight += w;
      if (ll.owner_slot != slot) {
        // Shared link: this flow contends with the link's first owner.
        const std::uint32_t ra = uf_find(ll.owner_slot);
        const std::uint32_t rb = uf_find(slot);
        if (ra != rb) uf_parent_[rb] = ra;
      }
    }
    af_.push_back(ActiveFlow{
        f, begin, static_cast<std::uint32_t>(path_flat_.size()), w});
  }

  // --- Phase B: label components in first-member order and bucket member
  // slots with a counting-sort scatter (preserves ascending span order
  // within each component -- the order the fill and the cache validation
  // both rely on).
  const std::uint32_t n = static_cast<std::uint32_t>(af_.size());
  comp_of_root_.assign(n, kInvalidIndex);
  comp_of_.resize(n);
  std::uint32_t comps = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::uint32_t r = uf_find(s);
    if (comp_of_root_[r] == kInvalidIndex) comp_of_root_[r] = comps++;
    comp_of_[s] = comp_of_root_[r];
  }
  bucket_scatter(
      n, comps, [&](std::size_t s) { return comp_of_[s]; },
      [](std::size_t s) { return static_cast<std::uint32_t>(s); },
      comp_start_, comp_cursor_, comp_members_);

  // --- Phase C: per component, reuse the cached converged rates when the
  // inputs are provably unchanged, otherwise water-fill (and re-cache).
  //
  // Structured as validate -> fill -> merge so the fills can run on the
  // shared pool (DESIGN.md §10). The serial cache-validation pass collects
  // the miss list (ascending component order) plus each miss's in-place
  // refresh candidate; the fills -- pure functions of per-component inputs
  // writing only their own members' rates and their own (link-disjoint)
  // links_ slots -- run in any order on any thread; and every
  // order-sensitive effect (record stores, stats, kCompFill emission)
  // happens serially afterwards in ascending-component order. Both paths
  // execute identical floating-point expressions on identical operands, so
  // rates, stats, the dirty set and the trace stream are bit-identical at
  // any thread count, including the serial path. ---
  stats_.components += comps;
  const std::uint64_t filled_before = stats_.components_filled;
  fill_comps_.clear();
  fill_cands_.clear();
  for (std::uint32_t c = 0; c < comps; ++c) {
    const std::uint32_t* members = comp_members_.data() + comp_start_[c];
    const std::size_t count = comp_start_[c + 1] - comp_start_[c];
    if (mode_ == AllocMode::kIncremental && try_reuse(members, count)) {
      ++stats_.components_reused;
      continue;
    }
    fill_comps_.push_back(c);
    fill_cands_.push_back(reuse_candidate_);
  }

  // --- Phase B2: equivalence-class partition of exactly the members of
  // to-be-filled components (reused components never pay for it), plus each
  // fill component's deduped link list. Serial; the fills below only read
  // its output. ---
  partition_classes();

  // Per-fill-component trace emission: one kCompFill (member count) + one
  // kClassFill (class count) pair, keyed on the component id so the merged
  // stream is in ascending-component order at any thread count (same-key
  // ties resolve by per-shard emission order -- the pair stays adjacent).
  const bool emit_comps = trace_ != nullptr && trace_components_;
  const auto fill_one = [&](std::size_t rank, FillScratch& fs) {
    if (fill_ == FillMode::kClass) {
      fill_component_class(rank, fs);
    } else {
      fill_component_perflow(rank, fs);
    }
  };
  const auto comp_fill_event = [&](std::uint32_t c) {
    return obs::TraceEvent{
        .kind = obs::TraceKind::kCompFill,
        .t = now,
        .id = pass_ - 1,
        .job = obs::TraceEvent::kNone,
        .ctx = c,
        .value = static_cast<double>(comp_start_[c + 1] - comp_start_[c])};
  };
  // kClassFill is emitted at *both* fill granularities (the partition is
  // computed regardless), keeping traced streams bit-identical across the
  // class-vs-per-flow differential suite.
  const auto class_fill_event = [&](std::size_t rank, std::uint32_t c) {
    return obs::TraceEvent{
        .kind = obs::TraceKind::kClassFill,
        .t = now,
        .id = pass_ - 1,
        .job = obs::TraceEvent::kNone,
        .ctx = c,
        .value = static_cast<double>(rank_class_start_[rank + 1] -
                                     rank_class_start_[rank])};
  };
  if (pool_ != nullptr && dirty_slots_.size() >= kMinParallelFillFlows) {
    const unsigned workers =
        std::min<unsigned>(threads_ == 0 ? pool_->concurrency() : threads_,
                           pool_->concurrency());
    fill_scratch_.begin_pass(workers);
    if (emit_comps) comp_shards_.begin(workers);
    pool_->run(fill_comps_.size(), workers, [&](unsigned w, std::size_t i) {
      const std::uint32_t c = fill_comps_[i];
      fill_one(i, fill_scratch_.at(w));
      if (emit_comps) {
        comp_shards_.record(w, c, comp_fill_event(c));
        comp_shards_.record(w, c, class_fill_event(i, c));
      }
    });
    if (emit_comps) comp_shards_.merge_into(*trace_);
  } else {
    fill_scratch_.begin_pass(1);
    FillScratch& fs = fill_scratch_.at(0);
    for (std::size_t i = 0; i < fill_comps_.size(); ++i) {
      const std::uint32_t c = fill_comps_[i];
      fill_one(i, fs);
      if (emit_comps) {
        trace_->record(comp_fill_event(c));
        trace_->record(class_fill_event(i, c));
      }
    }
  }

  // Deterministic merge: the converged rates fan back out to the flows in a
  // serial scatter -- ascending fill-component order, ascending slot (==
  // ascending FlowId) within each component -- followed by the record-cache
  // store, exactly as the interleaved serial loop did. (Fills write only
  // cls_rate_/member_rate_; Flow::rate is written here and nowhere else on
  // the fill path, so the scatter order is the only rate-write order and is
  // independent of thread count.)
  stats_.components_filled += fill_comps_.size();
  stats_.classes += n_classes_;
  stats_.class_members += dirty_slots_.size();
  for (std::size_t i = 0; i < fill_comps_.size(); ++i) {
    const std::uint32_t c = fill_comps_[i];
    for (std::uint32_t mi = comp_start_[c]; mi < comp_start_[c + 1]; ++mi) {
      const std::uint32_t s = comp_members_[mi];
      af_[s].flow->rate = fill_ == FillMode::kClass
                              ? cls_rate_[class_of_slot_[s]]
                              : member_rate_[s];
    }
    if (mode_ == AllocMode::kIncremental) {
      reuse_candidate_ = fill_cands_[i];
      store_component(comp_members_.data() + comp_start_[c],
                      comp_start_[c + 1] - comp_start_[c]);
    }
  }
  if (mode_ == AllocMode::kIncremental) maybe_sweep_records(comps);

  // --- Dirty-set handoff + notification consumption. ---
  for (std::size_t i = 0; i < flows.size(); ++i) {
    Flow* f = flows[i];
    f->control_dirty = false;
    if (f->rate != prev_rate_[i]) rate_changed_.push_back(f);
  }

  // Observability: one event per pass, read-only, behind the null-sink
  // branch (DESIGN.md §9 no-perturbation contract).
  if (trace_ != nullptr) {
    trace_->record(obs::TraceEvent{
        .kind = obs::TraceKind::kAllocPass,
        .t = now,
        .id = pass_ - 1,
        .job = obs::TraceEvent::kNone,
        .ctx = comps,
        .value =
            static_cast<double>(stats_.components_filled - filled_before)});
  }
}

void RateAllocator::partition_classes() {
  // Collect the to-be-filled members, rank-major (ascending fill component,
  // ascending slot within) -- the canonical unit order both fills follow.
  dirty_slots_.clear();
  for (const std::uint32_t c : fill_comps_) {
    for (std::uint32_t mi = comp_start_[c]; mi < comp_start_[c + 1]; ++mi) {
      dirty_slots_.push_back(comp_members_[mi]);
    }
  }
  const std::size_t m = dirty_slots_.size();

  // Dense route-bucket keys: the interned RouteId, or a unique sentinel
  // above every real id for flows without one (direct path writes) -- those
  // become singleton classes, degrading gracefully to per-flow behavior.
  // Two flows sharing a RouteId share every link, hence a component, so a
  // *global* route bucket never straddles components and the scatter below
  // respects component boundaries for free.
  route_key_.resize(m);
  std::uint64_t route_limit = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const RouteId r = af_[dirty_slots_[i]].flow->route;
    if (r.valid()) route_limit = std::max(route_limit, r.value() + 1);
  }
  std::uint64_t next_sentinel = route_limit;
  for (std::size_t i = 0; i < m; ++i) {
    const RouteId r = af_[dirty_slots_[i]].flow->route;
    route_key_[i] = r.valid() ? r.value() : next_sentinel++;
  }
  bucket_scatter(
      m, static_cast<std::size_t>(next_sentinel),
      [&](std::size_t i) { return route_key_[i]; },
      [&](std::size_t i) { return dirty_slots_[i]; }, route_start_,
      route_cursor_, route_order_);

  // Split each route bucket by exact (weight, cap) value: classes of one
  // bucket are contiguous in class-id space, so the match scan is a short
  // walk over the bucket's own classes (distinct weight/cap pairs per
  // route are few in practice; singletons trivially so). Class ids are
  // assigned in (route key, first-member) order -- deterministic, and
  // identical across fill granularities and thread counts.
  n_classes_ = 0;
  cls_weight_.clear();
  cls_cap_.clear();
  cls_has_cap_.clear();
  cls_rate_.clear();
  cls_count_.clear();
  cls_path_begin_.clear();
  cls_path_end_.clear();
  cls_rank_.clear();
  class_of_slot_.resize(af_.size());
  comp_rank_.resize(comp_start_.size());
  for (std::size_t i = 0; i < fill_comps_.size(); ++i) {
    comp_rank_[fill_comps_[i]] = static_cast<std::uint32_t>(i);
  }
  const std::size_t buckets = route_start_.size() - 1;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::uint32_t bucket_class_begin = n_classes_;
    for (std::uint32_t pos = route_start_[b]; pos < route_start_[b + 1];
         ++pos) {
      const std::uint32_t s = route_order_[pos];
      const ActiveFlow& a = af_[s];
      const bool has_cap = a.flow->rate_cap.has_value();
      const double cap = has_cap ? *a.flow->rate_cap : 0.0;
      std::uint32_t k = kInvalidIndex;
      for (std::uint32_t kk = bucket_class_begin; kk < n_classes_; ++kk) {
        if (cls_weight_[kk] == a.weight && cls_has_cap_[kk] == has_cap &&
            (!has_cap || cls_cap_[kk] == cap)) {
          k = kk;
          break;
        }
      }
      if (k == kInvalidIndex) {
        k = n_classes_++;
        cls_weight_.push_back(a.weight);
        cls_cap_.push_back(cap);
        cls_has_cap_.push_back(has_cap ? 1 : 0);
        cls_rate_.push_back(0.0);
        cls_count_.push_back(0);
        cls_path_begin_.push_back(a.path_begin);
        cls_path_end_.push_back(a.path_end);
        cls_rank_.push_back(comp_rank_[comp_of_[s]]);
      }
#ifndef NDEBUG
      // Contract check: equal RouteId implies bitwise-equal link sequence.
      // A violation means someone rewrote Flow::path without re-interning
      // (Simulator::resume_flow / reroute_flow are the sanctioned paths).
      assert(a.path_end - a.path_begin ==
                 cls_path_end_[k] - cls_path_begin_[k] &&
             "Flow::route out of sync with Flow::path");
      for (std::uint32_t j = 0; j < a.path_end - a.path_begin; ++j) {
        assert(path_flat_[a.path_begin + j] ==
                   path_flat_[cls_path_begin_[k] + j] &&
               "Flow::route out of sync with Flow::path");
      }
#endif
      ++cls_count_[k];
      class_of_slot_[s] = k;
    }
  }

  // Classes bucketed by fill rank (stable: preserves class-id order within
  // each component), then member slots bucketed by class (stable: input is
  // rank-major slot-ascending, so each class's member run is ascending).
  bucket_scatter(
      n_classes_, fill_comps_.size(),
      [&](std::size_t k) { return cls_rank_[k]; },
      [](std::size_t k) { return static_cast<std::uint32_t>(k); },
      rank_class_start_, rank_class_cursor_, rank_classes_);
  bucket_scatter(
      m, n_classes_,
      [&](std::size_t i) { return class_of_slot_[dirty_slots_[i]]; },
      [&](std::size_t i) { return dirty_slots_[i]; }, class_member_start_,
      class_member_cursor_, class_members_);

  // Deduped per-component link list, in class-unit order: the single
  // `remaining_capacity -= delta * unfrozen_weight` sweep both fills run
  // per round walks exactly these links. The `listed` marker needs no
  // per-component reset -- components are link-disjoint and begin_pass()
  // zeroed it.
  comp_links_.clear();
  rank_link_start_.clear();
  for (std::size_t r = 0; r < fill_comps_.size(); ++r) {
    rank_link_start_.push_back(static_cast<std::uint32_t>(comp_links_.size()));
    for (std::uint32_t ki = rank_class_start_[r];
         ki < rank_class_start_[r + 1]; ++ki) {
      const std::uint32_t k = rank_classes_[ki];
      for (std::uint32_t p = cls_path_begin_[k]; p < cls_path_end_[k]; ++p) {
        LinkLoad& ll = links_.at(LinkId{path_flat_[p]});
        if (ll.listed == 0) {
          ll.listed = 1;
          comp_links_.push_back(path_flat_[p]);
        }
      }
    }
  }
  rank_link_start_.push_back(static_cast<std::uint32_t>(comp_links_.size()));

  if (fill_ == FillMode::kPerFlow) member_rate_.resize(af_.size());
}

// Both fills below are the *same* canonical progressive filling in
// grouping-invariant form (DESIGN.md §11): per round,
//   1. delta = min over unfrozen units of per-route-link rem/uw and the
//      cap headroom (cap - rate) / w  -- min is exact, so evaluating a
//      shared route's links once per class or once per member gives the
//      bitwise-same delta;
//   2. every unfrozen unit's rate += w * delta -- class members share the
//      identical accumulation history, so one class-level add stands for
//      all of them;
//   3. every component link's rem -= delta * uw, once per link per round
//      (links whose flows are all frozen have uw == +-0.0 and the subtract
//      is an exact no-op);
//   4. freeze pass in unit order: cap-clamp or any route link rem <= eps;
//      a frozen unit retires weight w from each route link once per member
//      (the class repeats the subtraction count times -- the identical
//      per-link value sequence as consecutive per-flow members).
// Each round freezes at least one unit or saturates at least one link, so
// the loop terminates in O(units + links) rounds. Components are
// link-disjoint by construction, so concurrent fills of distinct
// components are race-free (the mutable working set `fs` is
// thread-confined per participant).
void RateAllocator::fill_component_class(std::size_t rank, FillScratch& fs) {
  std::vector<std::uint32_t>& unfrozen_ = fs.unfrozen;
  std::vector<std::uint32_t>& next_ = fs.next;
  unfrozen_.assign(rank_classes_.begin() + rank_class_start_[rank],
                   rank_classes_.begin() + rank_class_start_[rank + 1]);
  const std::uint32_t link_begin = rank_link_start_[rank];
  const std::uint32_t link_end = rank_link_start_[rank + 1];
  while (!unfrozen_.empty()) {
    double delta = std::numeric_limits<double>::infinity();
    for (const std::uint32_t k : unfrozen_) {
      for (std::uint32_t p = cls_path_begin_[k]; p < cls_path_end_[k]; ++p) {
        const LinkLoad& ll = links_.at(LinkId{path_flat_[p]});
        assert(ll.unfrozen_weight > 0.0);
        delta = std::min(delta, ll.remaining_capacity / ll.unfrozen_weight);
      }
      if (cls_has_cap_[k]) {
        delta = std::min(delta, (cls_cap_[k] - cls_rate_[k]) / cls_weight_[k]);
      }
    }
    if (!std::isfinite(delta)) break;  // defensive: no constraint found
    delta = std::max(delta, 0.0);

    for (const std::uint32_t k : unfrozen_) {
      cls_rate_[k] += cls_weight_[k] * delta;
    }
    for (std::uint32_t li = link_begin; li < link_end; ++li) {
      LinkLoad& ll = links_.at(LinkId{comp_links_[li]});
      ll.remaining_capacity -= delta * ll.unfrozen_weight;
    }
    // Freezing pass (separate from the increment so all link updates land
    // before saturation checks).
    constexpr double kEps = 1e-12;
    next_.clear();
    for (const std::uint32_t k : unfrozen_) {
      bool frozen = false;
      if (cls_has_cap_[k] && cls_rate_[k] >= cls_cap_[k] - kEps) {
        cls_rate_[k] = cls_cap_[k];
        frozen = true;
      } else {
        for (std::uint32_t p = cls_path_begin_[k]; p < cls_path_end_[k];
             ++p) {
          if (links_.at(LinkId{path_flat_[p]}).remaining_capacity <= kEps) {
            frozen = true;
            break;
          }
        }
      }
      if (frozen) {
        // One weight retirement per member: the per-link subtraction
        // sequence (w, count times) is bitwise what consecutive per-flow
        // members would have produced.
        for (std::uint32_t rep = 0; rep < cls_count_[k]; ++rep) {
          for (std::uint32_t p = cls_path_begin_[k]; p < cls_path_end_[k];
               ++p) {
            links_.at(LinkId{path_flat_[p]}).unfrozen_weight -=
                cls_weight_[k];
          }
        }
      } else {
        next_.push_back(k);
      }
    }
    if (next_.size() == unfrozen_.size()) break;  // defensive: no progress
    unfrozen_.swap(next_);
  }
}

void RateAllocator::fill_component_perflow(std::size_t rank,
                                           FillScratch& fs) {
  // Reference granularity: units are individual members, enumerated in
  // class-major order (class id ascending, slot ascending within) -- the
  // exact order the class fill logically treats them in.
  std::vector<std::uint32_t>& unfrozen_ = fs.unfrozen;
  std::vector<std::uint32_t>& next_ = fs.next;
  unfrozen_.clear();
  for (std::uint32_t ki = rank_class_start_[rank];
       ki < rank_class_start_[rank + 1]; ++ki) {
    const std::uint32_t k = rank_classes_[ki];
    for (std::uint32_t mi = class_member_start_[k];
         mi < class_member_start_[k + 1]; ++mi) {
      const std::uint32_t s = class_members_[mi];
      member_rate_[s] = 0.0;
      unfrozen_.push_back(s);
    }
  }
  const std::uint32_t link_begin = rank_link_start_[rank];
  const std::uint32_t link_end = rank_link_start_[rank + 1];
  while (!unfrozen_.empty()) {
    double delta = std::numeric_limits<double>::infinity();
    for (const std::uint32_t s : unfrozen_) {
      const ActiveFlow& a = af_[s];
      for (std::uint32_t p = a.path_begin; p < a.path_end; ++p) {
        const LinkLoad& ll = links_.at(LinkId{path_flat_[p]});
        assert(ll.unfrozen_weight > 0.0);
        delta = std::min(delta, ll.remaining_capacity / ll.unfrozen_weight);
      }
      if (a.flow->rate_cap) {
        delta =
            std::min(delta, (*a.flow->rate_cap - member_rate_[s]) / a.weight);
      }
    }
    if (!std::isfinite(delta)) break;  // defensive: no constraint found
    delta = std::max(delta, 0.0);

    for (const std::uint32_t s : unfrozen_) {
      member_rate_[s] += af_[s].weight * delta;
    }
    for (std::uint32_t li = link_begin; li < link_end; ++li) {
      LinkLoad& ll = links_.at(LinkId{comp_links_[li]});
      ll.remaining_capacity -= delta * ll.unfrozen_weight;
    }
    constexpr double kEps = 1e-12;
    next_.clear();
    for (const std::uint32_t s : unfrozen_) {
      const ActiveFlow& a = af_[s];
      bool frozen = false;
      if (a.flow->rate_cap && member_rate_[s] >= *a.flow->rate_cap - kEps) {
        member_rate_[s] = *a.flow->rate_cap;
        frozen = true;
      } else {
        for (std::uint32_t p = a.path_begin; p < a.path_end; ++p) {
          if (links_.at(LinkId{path_flat_[p]}).remaining_capacity <= kEps) {
            frozen = true;
            break;
          }
        }
      }
      if (frozen) {
        for (std::uint32_t p = a.path_begin; p < a.path_end; ++p) {
          links_.at(LinkId{path_flat_[p]}).unfrozen_weight -= a.weight;
        }
      } else {
        next_.push_back(s);
      }
    }
    if (next_.size() == unfrozen_.size()) break;  // defensive: no progress
    unfrozen_.swap(next_);
  }
}

bool RateAllocator::try_reuse(const std::uint32_t* members,
                              std::size_t count) {
  reuse_candidate_ = kInvalidIndex;
  // Resolve the candidate record through the first member's back-pointer.
  const std::uint64_t id0 = af_[members[0]].flow->id.value();
  if (id0 >= flow_rec_.size()) return false;
  const std::uint32_t rec_idx = flow_rec_[id0];
  if (rec_idx == kInvalidIndex) return false;
  CompRecord& rec = records_[rec_idx];
  if (rec.in_free_list || flow_rec_gen_[id0] != rec.gen) return false;
  if (rec.members.size() != count) return false;
  // Membership walk first: positional member identity. A record whose
  // member list still matches is an in-place refresh candidate even when
  // the value validation below fails -- steady control-plane churn rewrites
  // weights/caps of a stable component, and refreshing the existing slot
  // skips the back-pointer rewrite and the slab turnover entirely.
  for (std::size_t i = 0; i < count; ++i) {
    if (rec.members[i].id != af_[members[i]].flow->id.value()) return false;
  }
  reuse_candidate_ = rec_idx;
  if (rec.capacity_epoch != topo_->capacity_epoch()) return false;
  // Exact validation: bit-for-bit weight/cap values. Flow ids are never
  // reused and paths are immutable per id, so id equality implies path
  // equality; link capacities come from the topology and are pinned by the
  // capacity epoch above. Matching inputs therefore imply the cached rates
  // equal what water_fill would recompute, bit for bit. The control_dirty
  // check is a cheap setter-notification short-circuit; the value compare
  // is authoritative, so direct field writes are still detected.
  for (std::size_t i = 0; i < count; ++i) {
    const Flow* f = af_[members[i]].flow;
    const MemberSnap& m = rec.members[i];
    if (f->control_dirty) return false;
    if (m.weight != f->weight) return false;
    const bool has_cap = f->rate_cap.has_value();
    if (m.has_cap != has_cap) return false;
    if (has_cap && m.cap != *f->rate_cap) return false;
  }
  rec.last_used_pass = pass_;
  for (std::size_t i = 0; i < count; ++i) {
    af_[members[i]].flow->rate = rec.members[i].rate;
  }
  return true;
}

void RateAllocator::store_component(const std::uint32_t* members,
                                    std::size_t count) {
  if (reuse_candidate_ != kInvalidIndex) {
    // Same membership, new values: refresh the record in place. The slot,
    // its generation and every flow back-pointer stay valid.
    CompRecord& rec = records_[reuse_candidate_];
    rec.last_used_pass = pass_;
    rec.capacity_epoch = topo_->capacity_epoch();
    for (std::size_t i = 0; i < count; ++i) {
      const Flow* f = af_[members[i]].flow;
      MemberSnap& m = rec.members[i];
      m.weight = f->weight;
      m.has_cap = f->rate_cap.has_value();
      m.cap = f->rate_cap ? *f->rate_cap : 0.0;
      m.rate = f->rate;
    }
    return;
  }
  std::uint32_t idx;
  if (!record_free_.empty()) {
    idx = record_free_.back();
    record_free_.pop_back();
    records_[idx].in_free_list = false;
  } else {
    idx = static_cast<std::uint32_t>(records_.size());
    records_.emplace_back();
    // Keep the free list's capacity at least the slab size so the sweep
    // below never allocates.
    record_free_.reserve(records_.capacity());
  }
  CompRecord& rec = records_[idx];
  ++rec.gen;  // invalidates any stale references to a recycled slot
  rec.last_used_pass = pass_;
  rec.capacity_epoch = topo_->capacity_epoch();
  rec.members.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Flow* f = af_[members[i]].flow;
    const std::uint64_t id = f->id.value();
    MemberSnap& m = rec.members[i];
    m.id = id;
    m.weight = f->weight;
    m.has_cap = f->rate_cap.has_value();
    m.cap = f->rate_cap ? *f->rate_cap : 0.0;
    m.rate = f->rate;
    if (id >= flow_rec_.size()) {
      flow_rec_.resize(id + 1, kInvalidIndex);
      flow_rec_gen_.resize(id + 1, 0);
    }
    flow_rec_[id] = idx;
    flow_rec_gen_[id] = rec.gen;
  }
}

void RateAllocator::maybe_sweep_records(std::size_t live_components) {
  const std::size_t allocated = records_.size() - record_free_.size();
  if (allocated <= 2 * live_components + 64) return;
  // Mark-and-sweep: every live component touched its record this pass
  // (reuse or store), so anything with an older stamp is unreachable --
  // either superseded by a refill or orphaned by departed flows.
  for (std::uint32_t i = 0; i < records_.size(); ++i) {
    CompRecord& rec = records_[i];
    if (rec.in_free_list || rec.last_used_pass == pass_) continue;
    ++rec.gen;  // O(1) invalidation of all phantom flow references
    rec.in_free_list = true;
    record_free_.push_back(i);  // no alloc: capacity >= records_.capacity()
  }
}

}  // namespace echelon::netsim
