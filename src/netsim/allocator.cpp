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
  rate_changed_.clear();

  // Every flow's `control_dirty` is consumed, and `rate_changed_` lists, in
  // span order, the flows whose rate the pass moved (the Simulator's
  // heap-patch dirty set).
  std::uint32_t comps = 0;
  if (caps_fit(flows)) {
    // Explicit-rate pass: each contended flow gets exactly its cap (the
    // weighted max-min allocation when the caps fit), and trivial flows
    // what Phase A gives them. Weights play no part.
    ++stats_.explicit_passes;
    for (Flow* f : flows) {
      // An uncapped flow here is a loopback: caps_fit() rejects any other.
      const double rate =
          f->finished() || (f->rate_cap && *f->rate_cap <= 0.0) ? 0.0
          : f->rate_cap ? *f->rate_cap
                        : std::numeric_limits<double>::infinity();
      f->control_dirty = false;
      if (rate != f->rate) rate_changed_.push_back(f);
      f->rate = rate;
    }
  } else {
    prev_rate_.clear();
    for (const Flow* f : flows) prev_rate_.push_back(f->rate);
    comps = water_fill(flows, now);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      Flow* f = flows[i];
      f->control_dirty = false;
      if (f->rate != prev_rate_[i]) rate_changed_.push_back(f);
    }
  }

  // Observability: one event per pass, read-only, behind the null-sink
  // branch (DESIGN.md §9 no-perturbation contract).
  if (trace_ != nullptr) {
    trace_->record(obs::TraceEvent{.kind = obs::TraceKind::kAllocPass,
                                   .t = now,
                                   .id = pass_ - 1,
                                   .job = obs::TraceEvent::kNone,
                                   .ctx = comps,
                                   .value = static_cast<double>(comps)});
  }
}

bool RateAllocator::caps_fit(std::span<Flow* const> flows) {
  cap_sum_.begin_pass(*topo_);
  for (const Flow* f : flows) {
    // Trivial flows, classified as in Phase A: finished, loopback or
    // zero-capped flows take no link capacity.
    if (f->finished() || f->path.empty()) continue;
    if (!f->rate_cap) return false;
    const double cap = *f->rate_cap;
    if (cap <= 0.0) continue;
    for (const LinkId lid : f->path) {
      double& sum = cap_sum_.touch(lid);
      sum += cap;
      // Negated so that a NaN cap is left to the fill as well.
      if (!(sum <= topo_->link(lid).capacity * (1.0 + kNoise))) return false;
    }
  }
  return true;
}

std::uint32_t RateAllocator::water_fill(std::span<Flow*> flows, SimTime now) {
  // Per-round link state, stamped only for links that carry at least one
  // flow (lazy epoch reset; no per-pass map rebuild).
  links_.begin_pass(*topo_);
  af_.clear();
  path_flat_.clear();
  uf_parent_.clear();

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
  // within each component -- the canonical unit order the fills follow).
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

  // --- Phase C: equivalence-class partition of every component's members,
  // plus each component's deduped link list. Serial; the fills below only
  // read its output. ---
  partition_classes();

  // --- Phase D: water-fill every component, then merge.
  //
  // The fills -- pure functions of per-component inputs writing only their
  // own class rates and their own (link-disjoint) links_ slots -- run in
  // any order on any thread (DESIGN.md §10); every order-sensitive effect
  // (rate scatter, stats, kCompFill emission) happens serially, in
  // ascending-component order. Serial and parallel passes execute identical
  // floating-point expressions on identical operands, so rates, stats, the
  // dirty set and the trace stream are bit-identical at any thread
  // count. ---
  //
  // Per-component trace emission: one kCompFill (member count) + one
  // kClassFill (class count) pair, keyed on the component id so the merged
  // stream is in ascending-component order at any thread count (same-key
  // ties resolve by per-shard emission order -- the pair stays adjacent).
  const bool emit_comps = trace_ != nullptr && trace_components_;
  const auto comp_fill_event = [&](std::uint32_t c) {
    return obs::TraceEvent{
        .kind = obs::TraceKind::kCompFill,
        .t = now,
        .id = pass_ - 1,
        .job = obs::TraceEvent::kNone,
        .ctx = c,
        .value = static_cast<double>(comp_start_[c + 1] - comp_start_[c])};
  };
  const auto class_fill_event = [&](std::uint32_t c) {
    return obs::TraceEvent{
        .kind = obs::TraceKind::kClassFill,
        .t = now,
        .id = pass_ - 1,
        .job = obs::TraceEvent::kNone,
        .ctx = c,
        .value = static_cast<double>(comp_class_start_[c + 1] -
                                     comp_class_start_[c])};
  };
  if (pool_ != nullptr && n >= kMinParallelFillFlows) {
    const unsigned workers =
        std::min<unsigned>(threads_ == 0 ? pool_->concurrency() : threads_,
                           pool_->concurrency());
    fill_scratch_.begin_pass(workers);
    if (emit_comps) comp_shards_.begin(workers);
    pool_->run(comps, workers, [&](unsigned w, std::size_t i) {
      const auto c = static_cast<std::uint32_t>(i);
      fill_component_class(c, fill_scratch_.at(w));
      if (emit_comps) {
        comp_shards_.record(w, c, comp_fill_event(c));
        comp_shards_.record(w, c, class_fill_event(c));
      }
    });
    if (emit_comps) comp_shards_.merge_into(*trace_);
  } else {
    fill_scratch_.begin_pass(1);
    FillScratch& fs = fill_scratch_.at(0);
    for (std::uint32_t c = 0; c < comps; ++c) {
      fill_component_class(c, fs);
      if (emit_comps) {
        trace_->record(comp_fill_event(c));
        trace_->record(class_fill_event(c));
      }
    }
  }

  // Deterministic merge: the converged rates fan back out to the flows in a
  // serial scatter. (Fills write only cls_rate_; Flow::rate is written here
  // and nowhere else on the fill path, so the result is independent of
  // thread count.)
  stats_.components += comps;
  stats_.components_filled += comps;
  stats_.classes += n_classes_;
  stats_.class_members += n;
  for (std::uint32_t s = 0; s < n; ++s) {
    af_[s].flow->rate = cls_rate_[class_of_slot_[s]];
  }
  return comps;
}

void RateAllocator::partition_classes() {
  const std::size_t m = comp_members_.size();
  const std::size_t comps = comp_start_.size() - 1;

  // Dense route-bucket keys: the rank of the flow's interned RouteId among
  // the distinct RouteIds of this pass, or a unique sentinel after every
  // rank for flows without one (direct path writes) -- those become
  // singleton classes, degrading gracefully to per-flow behavior. Buckets
  // stay in ascending-RouteId order, which fixes class ids (and so every
  // rate), while the scatter costs what the pass fills rather than the
  // size of the route table.
  // Two flows sharing a RouteId share every link, hence a component, so a
  // *global* route bucket never straddles components and the scatter below
  // respects component boundaries for free.
  route_rank_.begin_pass();
  route_key_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const RouteId r = af_[comp_members_[i]].flow->route;
    if (!r.valid()) {
      route_key_[i] = kInvalidIndex;
      continue;
    }
    const auto id = static_cast<std::uint32_t>(r.value());
    route_rank_.ensure_size(std::size_t{id} + 1);
    route_rank_.touch(id);
    route_key_[i] = id;
  }
  pass_routes_.assign(route_rank_.touched().begin(),
                      route_rank_.touched().end());
  std::sort(pass_routes_.begin(), pass_routes_.end());
  for (std::size_t k = 0; k < pass_routes_.size(); ++k) {
    route_rank_.at(pass_routes_[k]) = static_cast<std::uint32_t>(k);
  }
  auto next_sentinel = static_cast<std::uint32_t>(pass_routes_.size());
  for (std::size_t i = 0; i < m; ++i) {
    route_key_[i] = route_key_[i] == kInvalidIndex
                        ? next_sentinel++
                        : route_rank_.at(route_key_[i]);
  }
  bucket_scatter(
      m, next_sentinel, [&](std::size_t i) { return route_key_[i]; },
      [&](std::size_t i) { return comp_members_[i]; }, route_start_,
      route_cursor_, route_order_);

  // Split each route bucket by exact (weight, cap) value: classes of one
  // bucket are contiguous in class-id space, so the match scan is a short
  // walk over the bucket's own classes (distinct weight/cap pairs per
  // route are few in practice; singletons trivially so). Class ids are
  // assigned in (route key, first-member) order -- deterministic, and
  // identical at any thread count.
  n_classes_ = 0;
  cls_weight_.clear();
  cls_cap_.clear();
  cls_has_cap_.clear();
  cls_rate_.clear();
  cls_count_.clear();
  cls_path_begin_.clear();
  cls_path_end_.clear();
  cls_comp_.clear();
  class_of_slot_.resize(af_.size());
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
        cls_comp_.push_back(comp_of_[s]);
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

  // Classes bucketed by component (stable: preserves class-id order within
  // each component).
  bucket_scatter(
      n_classes_, comps, [&](std::size_t k) { return cls_comp_[k]; },
      [](std::size_t k) { return static_cast<std::uint32_t>(k); },
      comp_class_start_, comp_class_cursor_, comp_classes_);

  // Deduped per-component link list, in class-unit order: the single
  // `remaining_capacity -= delta * unfrozen_weight` sweep the fill runs
  // per round walks exactly these links. The `listed` marker needs no
  // per-component reset -- components are link-disjoint and begin_pass()
  // zeroed it.
  comp_links_.clear();
  comp_link_start_.clear();
  for (std::size_t c = 0; c < comps; ++c) {
    comp_link_start_.push_back(static_cast<std::uint32_t>(comp_links_.size()));
    for (std::uint32_t ki = comp_class_start_[c];
         ki < comp_class_start_[c + 1]; ++ki) {
      const std::uint32_t k = comp_classes_[ki];
      for (std::uint32_t p = cls_path_begin_[k]; p < cls_path_end_[k]; ++p) {
        LinkLoad& ll = links_.at(LinkId{path_flat_[p]});
        if (ll.listed == 0) {
          ll.listed = 1;
          comp_links_.push_back(path_flat_[p]);
        }
      }
    }
  }
  comp_link_start_.push_back(static_cast<std::uint32_t>(comp_links_.size()));
}

// Progressive filling over equivalence classes, in a grouping-invariant
// form (DESIGN.md §11) -- each class stands for its members exactly as if
// they were filled one by one. Per round,
//   1. delta = min over unfrozen classes of per-route-link rem/uw and the
//      cap headroom (cap - rate) / w  -- min is exact, so evaluating a
//      shared route's links once per class or once per member gives the
//      bitwise-same delta;
//   2. every unfrozen class's rate += w * delta -- class members share the
//      identical accumulation history, so one class-level add stands for
//      all of them;
//   3. every component link's rem -= delta * uw, once per link per round
//      (links whose flows are all frozen have uw == +-0.0 and the subtract
//      is an exact no-op);
//   4. freeze pass in class order: cap-clamp or any route link rem <= eps;
//      a frozen class retires weight w from each route link once per
//      member (the subtraction repeats count times -- the identical
//      per-link value sequence as consecutive per-flow members).
// Each round freezes at least one unit or saturates at least one link, so
// the loop terminates in O(units + links) rounds. Components are
// link-disjoint by construction, so concurrent fills of distinct
// components are race-free (the mutable working set `fs` is
// thread-confined per participant). The test certifier (tests/certify.hpp)
// holds every pass to the weighted max-min definition.
void RateAllocator::fill_component_class(std::uint32_t c, FillScratch& fs) {
  std::vector<std::uint32_t>& unfrozen_ = fs.unfrozen;
  std::vector<std::uint32_t>& next_ = fs.next;
  unfrozen_.assign(comp_classes_.begin() + comp_class_start_[c],
                   comp_classes_.begin() + comp_class_start_[c + 1]);
  const std::uint32_t link_begin = comp_link_start_[c];
  const std::uint32_t link_end = comp_link_start_[c + 1];
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
    // before saturation checks). A unit freezes at its cap or on a
    // saturated route link: within kEps absolute, or -- when `relaxed` --
    // within kNoise of the cap or the link's capacity as well.
    constexpr double kEps = 1e-12;
    const auto freeze = [&](bool relaxed) {
      next_.clear();
      for (const std::uint32_t k : unfrozen_) {
        bool frozen = false;
        if (cls_has_cap_[k] &&
            (cls_rate_[k] >= cls_cap_[k] - kEps ||
             (relaxed && cls_rate_[k] >= cls_cap_[k] - kNoise * cls_cap_[k]))) {
          cls_rate_[k] = cls_cap_[k];
          frozen = true;
        } else {
          for (std::uint32_t p = cls_path_begin_[k]; p < cls_path_end_[k];
               ++p) {
            const LinkId lid{path_flat_[p]};
            const double rem = links_.at(lid).remaining_capacity;
            if (rem <= kEps ||
                (relaxed && rem <= kNoise * topo_->link(lid).capacity)) {
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
    };
    freeze(/*relaxed=*/false);
    if (next_.size() == unfrozen_.size()) {
      // Nothing froze: the constraint that set delta was met only up to
      // rounding -- `rem - (rem / uw) * uw` or `rate + w * (cap - rate) / w`
      // can land a few ulps short of it, far above kEps at 1e10 B/s. That
      // constraint is within kNoise of binding, so a relaxed pass freezes
      // its units; stopping here instead would leave every unfrozen unit of
      // the component short of its max-min rate.
      freeze(/*relaxed=*/true);
    }
    if (next_.size() == unfrozen_.size()) break;  // defensive: no progress
    unfrozen_.swap(next_);
  }
}

}  // namespace echelon::netsim
