#include "netsim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

#include "common/log.hpp"

namespace echelon::netsim {

namespace {

// Canonical completion instant for an active flow under the epoch-stamped
// accounting: the zero crossing of `remaining - rate * (t - epoch)`. Edge
// cases fall out of IEEE arithmetic: rate == +inf gives epoch (finishes
// immediately); rate == 0 with positive remaining gives +inf (never
// finishes on its own).
[[nodiscard]] inline SimTime completion_time(SimTime epoch,
                                             const Flow& f) noexcept {
  return epoch + f.remaining / f.rate;
}

// Retirement horizon at instant `t`: a flow whose residual drains within the
// simulator's relative time resolution counts as finished *now*. With
// extreme rates (profiling runs use ~1e30 B/s links) the completion instant
// is not representable as a distinct double and the flow could otherwise
// never retire.
[[nodiscard]] inline SimTime retire_threshold(SimTime t) noexcept {
  return t + kTimeEpsilon * std::max(1.0, std::fabs(t));
}

// One word of a flow-chunk digest: FNV-1a over whole words, with an
// xorshift so high input bits also reach the low state bits.
[[nodiscard]] inline std::uint64_t fold(std::uint64_t h,
                                        std::uint64_t word) noexcept {
  h = (h ^ word) * kFnvPrime;
  return h ^ (h >> 32);
}

[[nodiscard]] inline std::uint64_t fold(std::uint64_t h, double v) noexcept {
  return fold(h, std::bit_cast<std::uint64_t>(v));
}

// Folds a finished flow's snapshot-image fields (the per-flow entries of
// service/snapshot.cpp's verify image) into its chunk's digest.
[[nodiscard]] std::uint64_t fold_flow(std::uint64_t h, const Flow& f) noexcept {
  h = fold(h, static_cast<std::uint64_t>(f.state));
  h = fold(h, std::uint64_t{f.entered ? 1u : 0u});
  h = fold(h, f.remaining);
  h = fold(h, f.rate);
  h = fold(h, f.start_time);
  h = fold(h, f.finish_time);
  h = fold(h, f.weight);
  h = fold(h, std::uint64_t{f.rate_cap.has_value() ? 1u : 0u});
  h = fold(h, f.rate_cap.value_or(-1.0));
  h = fold(h, f.route.valid() ? f.route.value() : ~std::uint64_t{0});
  h = fold(h, static_cast<std::uint64_t>(f.path.size()));
  for (const LinkId link : f.path) h = fold(h, link.value());
  return h;
}

}  // namespace

Simulator::Simulator(const topology::Topology* topo)
    : topo_(topo),
      routes_(topo),
      allocator_(topo),
      scheduler_(&default_scheduler_) {
  assert(topo != nullptr);
}

void Simulator::set_scheduler(NetworkScheduler* scheduler) noexcept {
  scheduler_ = scheduler != nullptr ? scheduler : &default_scheduler_;
  allocation_dirty_ = true;
}

void Simulator::set_trace(obs::TraceSink* sink,
                          obs::TraceDetail detail) noexcept {
  trace_ = sink;
  trace_detail_ = sink == nullptr ? obs::TraceDetail::kOff : detail;
  // The allocator emits kAllocPass, a control-plane (kCoarse) event, plus
  // per-component kCompFill events at kFlow detail.
  allocator_.set_trace(
      trace_detail_ >= obs::TraceDetail::kCoarse ? sink : nullptr,
      trace_detail_ >= obs::TraceDetail::kFlow);
}

void Simulator::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    m_flow_completion_ = nullptr;
    m_queue_depth_ = nullptr;
    m_active_flows_ = nullptr;
    m_link_util_.clear();
    link_rate_scratch_.clear();
    return;
  }
  m_flow_completion_ = &registry->histogram("flow.completion_s");
  m_queue_depth_ = &registry->histogram(
      "worker.queue_depth",
      {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
  m_active_flows_ = &registry->series("sim.active_flows");
  m_link_util_.clear();
  m_link_util_.reserve(topo_->link_count());
  for (std::size_t i = 0; i < topo_->link_count(); ++i) {
    m_link_util_.push_back(
        &registry->series("link." + std::to_string(i) + ".util"));
  }
  link_rate_scratch_.assign(topo_->link_count(), 0.0);
}

void Simulator::trace_flow(obs::TraceKind kind, const Flow& f, double value,
                           std::string_view label) {
  trace_->record(obs::TraceEvent{.kind = kind,
                                 .t = now_,
                                 .id = f.id.value(),
                                 .job = f.spec.job.value(),
                                 .ctx = f.spec.group.value(),
                                 .value = value},
                 label);
}

void Simulator::link_utilization(std::vector<double>& out) const {
  // Per-link utilization: sum of allocated rates over the nominal capacity.
  // O(active * path_len). assign() on a same-sized vector reallocates
  // nothing, so steady-state sampling stays allocation-free.
  out.assign(topo_->link_count(), 0.0);
  for (FlowId id : active_flows_) {
    const Flow& f = flows_.at(id.value()).flow;
    if (f.rate <= 0.0 || std::isinf(f.rate)) continue;
    for (const LinkId lid : f.path) out[lid.value()] += f.rate;
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double cap = topo_->links()[i].capacity;
    out[i] = cap > 0.0 ? out[i] / cap : 0.0;
  }
}

void Simulator::sample_metrics() {
  m_active_flows_->sample(now_, static_cast<double>(active_flows_.size()));
  link_utilization(link_rate_scratch_);
  for (std::size_t i = 0; i < link_rate_scratch_.size(); ++i) {
    m_link_util_[i]->sample(now_, link_rate_scratch_[i]);
  }
}

WorkerId Simulator::add_worker(NodeId host) {
  const WorkerId id{workers_.size()};
  workers_.push_back(Worker{.id = id, .host = host});
  return id;
}

TaskId Simulator::enqueue_task(WorkerId worker, Duration duration,
                               std::string label, JobId job,
                               TaskCallback on_done) {
  const TaskId id{tasks_.size()};
  tasks_.push_back(TaskRecord{.task = ComputeTask{.id = id,
                                                 .worker = worker,
                                                 .duration = duration,
                                                 .label = std::move(label),
                                                 .job = job,
                                                 .enqueue_time = now_},
                              .on_done = std::move(on_done)});
  Worker& w = workers_.at(worker.value());
  if (w.queue_tail.valid()) {
    tasks_.at(w.queue_tail.value()).next_ready = id;
  } else {
    w.queue_head = id;
  }
  w.queue_tail = id;
  ++w.queued;
  if (m_queue_depth_ != nullptr) {
    m_queue_depth_->observe(static_cast<double>(w.queued));
  }
  if (w.idle()) start_next_task(worker);
  return id;
}

void Simulator::start_next_task(WorkerId worker) {
  Worker& w = workers_.at(worker.value());
  if (!w.idle() || w.queued == 0) return;
  const TaskId id = w.queue_head;
  TaskRecord& rec = tasks_.at(id.value());
  w.queue_head = rec.next_ready;
  if (--w.queued == 0) w.queue_tail = TaskId::invalid();
  ComputeTask& t = rec.task;
  t.start_time = now_;
  // Straggler scaling is applied once, at start, and recorded back into the
  // task so busy-time accounting and later reads see the actual runtime.
  // The healthy scale of 1.0 is bitwise neutral (d * 1.0 == d), so
  // fault-free runs are unchanged.
  t.duration *= w.compute_scale;
  w.running = id;
  w.first_start = std::min(w.first_start, now_);
  if (tracing(obs::TraceDetail::kFlow)) {
    trace_->record(obs::TraceEvent{.kind = obs::TraceKind::kTaskStart,
                                   .t = now_,
                                   .id = id.value(),
                                   .job = t.job.value(),
                                   .ctx = worker.value(),
                                   .value = t.duration},
                   t.label);
  }
  // [this, id] fits std::function's small-object buffer: no allocation.
  events_.schedule(now_ + t.duration, [this, id] { finish_task(id); });
}

void Simulator::finish_task(TaskId id) {
  TaskRecord& rec = tasks_.at(id.value());
  ComputeTask& t = rec.task;
  t.finish_time = now_;
  Worker& w = workers_.at(t.worker.value());
  w.busy_time += t.duration;
  w.last_finish = std::max(w.last_finish, now_);
  w.running = TaskId::invalid();

  if (tracing(obs::TraceDetail::kFlow)) {
    trace_->record(obs::TraceEvent{.kind = obs::TraceKind::kTaskFinish,
                                   .t = now_,
                                   .id = id.value(),
                                   .job = t.job.value(),
                                   .ctx = t.worker.value(),
                                   .value = t.duration});
  }

  ECHELON_LOG(kDebug) << "task " << t.label << " done at " << now_;

  // Fire completion callbacks first: they typically release successor work
  // (flows or tasks on other workers), and for determinism that work should
  // be visible before this worker greedily grabs its next queued task.
  // Callbacks may enqueue tasks; tasks_ never moves a record, so `t` stays
  // valid and hooks see the stored record itself.
  if (TaskCallback cb = std::move(rec.on_done); cb) cb(*this, t);
  for (const TaskCallback& cb : task_listeners_) cb(*this, t);
  start_next_task(t.worker);
  // Done for good: the record may be freed with its chunk from here on.
  tasks_.retire(id.value());
}

FlowId Simulator::submit_flow(FlowSpec spec, FlowCallback on_done,
                              std::string_view label) {
  const FlowId id{flows_.size()};
  Flow f;
  f.id = id;
  f.spec = spec;
  f.remaining = f.spec.size;
  f.start_time = now_;
  if (tracing(obs::TraceDetail::kFlow)) {
    trace_flow(obs::TraceKind::kFlowSubmit, f, f.spec.size, label);
  }
  if (f.spec.src != f.spec.dst) {
    // Route through the interned cache: the hint (when set) replaces the
    // flow id as the ECMP seed so structurally identical flows across
    // iterations share one canonical route -- and therefore one allocator
    // equivalence class.
    const std::uint64_t seed =
        f.spec.route_hint != 0 ? f.spec.route_hint : id.value();
    const auto rid = routes_.route(f.spec.src, f.spec.dst, seed);
    if (!rid.has_value()) {
      if (unroutable_handler_) {
        // Graceful degradation (fault injection): the endpoints are
        // disconnected *right now* -- park the flow at birth and let the
        // injector's retry policy decide when to resubmit it. The flow has
        // not entered the network: no arrival listeners, no scheduler
        // notification, start_time is fixed on its first real entry.
        f.state = FlowState::kParked;
        store_flow(std::move(f), std::move(on_done));
        // Its kFlowStart comes at entry, after the caller's label is gone.
        if (tracing(obs::TraceDetail::kFlow)) {
          parked_labels_.emplace(id, label);
        }
        UnroutableHandler handler = unroutable_handler_;  // reentrancy-safe
        handler(*this, id);
        return id;
      }
      // Without a handler a disconnected endpoint pair is a caller bug (bad
      // workload spec or topology), not a recoverable condition -- but it
      // must not vanish in release builds the way the old assert did.
      ECHELON_LOG(kError) << "submit_flow: no route from node "
                          << f.spec.src.value() << " to node "
                          << f.spec.dst.value() << " (flow '" << label
                          << "')";
      throw std::invalid_argument(
          "Simulator::submit_flow: no route from node " +
          std::to_string(f.spec.src.value()) + " to node " +
          std::to_string(f.spec.dst.value()));
    }
    f.route = *rid;
    f.path = routes_.path(*rid);  // a view: the interned path never moves
  }
  f.entered = true;
  // Listeners may submit flows; flows_ never moves a record, so `fr` stays
  // valid across them.
  Flow& fr = store_flow(std::move(f), std::move(on_done));
  if (tracing(obs::TraceDetail::kFlow)) {
    trace_flow(obs::TraceKind::kFlowStart, fr, fr.spec.size, label);
  }

  for (const FlowCallback& cb : flow_arrival_listeners_) cb(*this, fr);
  if (fr.remaining <= kBytesEpsilon) {
    // Zero-byte flow (e.g. control message): completes instantly, without
    // ever joining the active set. The scheduler never saw it arrive, so it
    // is not told about the departure either.
    complete_flow(id, /*notify_scheduler=*/false);
    return id;
  }
  // A flow submitted mid-epoch starts with rate 0 and is skipped by the
  // stamping pass until the reallocation below assigns it a rate -- at which
  // point the epoch has been moved to its start instant, so its `remaining`
  // baseline is consistent with the epoch by construction.
  fr.active_index = active_flows_.size();
  active_flows_.push_back(id);  // ids are monotonic: tail push keeps order
  allocation_dirty_ = true;
  scheduler_->on_flow_arrival(*this, fr);
  return id;
}

Flow& Simulator::store_flow(Flow&& f, FlowCallback&& on_done) {
  if (f.id.value() % kFlowChunk == 0) flow_chunk_digests_.push_back(kFnvOffset);
  return flows_.push_back(FlowRecord{std::move(f), std::move(on_done)}).flow;
}

void Simulator::schedule_at(SimTime at, TimerCallback cb) {
  // Relative tolerance, consistent with the run loop's simultaneity window:
  // the loop fires events up to a *relative* epsilon early (time_le), so a
  // callback computing "a moment ago" arithmetically may legitimately land
  // an epsilon before now_ at large simulation times. The old absolute
  // check (`at >= now_ - kTimeEpsilon`) aborted exactly there.
  assert(!time_lt(at, now_) && "cannot schedule in the past");
  // Park the (potentially large) user callback in a pooled slot so the
  // closure handed to the EventQueue is just {this, slot} -- within
  // std::function's small-object buffer. Steady-state timer scheduling and
  // firing therefore performs no heap allocation.
  std::uint32_t slot;
  if (!timer_free_.empty()) {
    slot = timer_free_.back();
    timer_free_.pop_back();
    timer_pool_[slot] = std::move(cb);
  } else {
    slot = static_cast<std::uint32_t>(timer_pool_.size());
    timer_pool_.push_back(std::move(cb));
  }
  events_.schedule(std::max(at, now_), [this, slot] { fire_timer(slot); });
}

void Simulator::fire_timer(std::uint32_t slot) {
  // Release the slot before invoking: the callback may schedule new timers
  // (and thus reuse it).
  TimerCallback cb = std::move(timer_pool_[slot]);
  timer_pool_[slot] = nullptr;
  timer_free_.push_back(slot);
  cb(*this);
}

void Simulator::reallocate() {
  // Schedulers tie-break on span order, so present flows in ascending-FlowId
  // order (the seed invariant) even after swap-and-pop retirements.
  restore_active_order();
  active_scratch_.clear();
  active_scratch_.reserve(active_flows_.size());
  for (FlowId id : active_flows_) {
    active_scratch_.push_back(&flows_.at(id.value()).flow);
  }
  if (tracing(obs::TraceDetail::kCoarse)) {
    trace_->record(obs::TraceEvent{.kind = obs::TraceKind::kControlPass,
                                   .t = now_,
                                   .id = control_invocations_,
                                   .ctx = active_scratch_.size()});
  }
  scheduler_->control(*this, active_scratch_);
  ++control_invocations_;
  allocator_.allocate(active_scratch_, now_);
  allocation_dirty_ = false;
  if (metrics_ != nullptr) sample_metrics();
  // Same-instant reallocation (epoch unmoved): every unchanged flow's heap
  // entry is bitwise still valid, so re-stamp only the allocator's dirty
  // set instead of rebuilding O(active). When the epoch moved, the stamp
  // already marked the heap dirty and the full rebuild runs in step 3.
  if (!completion_heap_dirty_) patch_completion_heap();
}

void Simulator::patch_completion_heap() {
  for (Flow* f : allocator_.rate_changed()) {
    // Per-flow generation bump: invalidates exactly this flow's previous
    // entry; other flows' entries keep matching their own stamps.
    f->completion_gen = ++heap_gen_;
    if (f->active_index == Flow::kNotActive || f->rate <= 0.0) continue;
    completion_heap_.push_back(
        CompletionEntry{completion_time(epoch_time_, *f), f->id, heap_gen_});
    std::push_heap(completion_heap_.begin(), completion_heap_.end(),
                   LaterCompletion{});
  }
}

void Simulator::restore_active_order() {
  if (!active_order_dirty_) return;
  // FlowIds are monotonic and never reused, so ascending id == seed insertion
  // order. Sorting (no allocation: introsort) restores the exact active-set
  // order the seed maintained with order-preserving erase.
  std::sort(active_flows_.begin(), active_flows_.end());
  for (std::size_t i = 0; i < active_flows_.size(); ++i) {
    flows_.at(active_flows_[i].value()).flow.active_index = i;
  }
  active_order_dirty_ = false;
}

void Simulator::stamp_active_flows(SimTime to) {
  const Duration dt = to - epoch_time_;
  if (dt > 0.0) {
    for (FlowId id : active_flows_) {
      Flow& f = flows_.at(id.value()).flow;
      // Rate-0 flows (just-submitted, or starved by the allocator) make no
      // progress; skipping them keeps the stamp proportional to *flowing*
      // flows and avoids perturbing their byte counts.
      if (f.rate == 0.0) continue;
      f.remaining -= f.rate * dt;
      // Accounting-drift canary: materialization may undershoot zero by
      // rounding, never by more than the drain slack plus relative error on
      // the flow size (large flows accumulate absolute ulp error).
      assert(f.remaining >= -(kBytesEpsilon + 1e-9 * f.spec.size) &&
             "lazy byte accounting drifted below zero");
    }
    // Completion times are a function of (epoch, remaining, rate): moving
    // the epoch re-derives them all (same values mathematically, different
    // floating-point operands), so the heap must be rebuilt before next
    // use. A zero-dt stamp leaves every operand bitwise unchanged, so
    // existing entries stay valid and reallocate() patches in only the
    // flows whose rate actually changed.
    completion_heap_dirty_ = true;
    // Counts byte-advancing stamps; zero-dt stamps leave every operand
    // bitwise unchanged and the generation with them.
    ++accounting_gen_;
  }
  epoch_time_ = to;
}

void Simulator::rebuild_completion_heap() {
  completion_heap_.clear();
  ++heap_gen_;
  for (FlowId id : active_flows_) {
    Flow& f = flows_.at(id.value()).flow;
    if (f.rate <= 0.0) continue;  // never completes at its current rate
    f.completion_gen = heap_gen_;
    completion_heap_.push_back(
        CompletionEntry{completion_time(epoch_time_, f), id, heap_gen_});
  }
  std::make_heap(completion_heap_.begin(), completion_heap_.end(),
                 LaterCompletion{});
  completion_heap_dirty_ = false;
}

SimTime Simulator::earliest_completion_heap() {
  // Entries can only go stale between a rebuild and the next read if a
  // callback retires a flow -- which also dirties the allocation and forces
  // a rebuild first. The lazy-discard loop below is therefore belt and
  // suspenders; it also keeps the method correct if that invariant ever
  // loosens.
  while (!completion_heap_.empty()) {
    const CompletionEntry& e = completion_heap_.front();
    if (entry_valid(e)) return e.tc;
    std::pop_heap(completion_heap_.begin(), completion_heap_.end(),
                  LaterCompletion{});
    completion_heap_.pop_back();
  }
  return kTimeInfinity;
}

bool Simulator::entry_valid(const CompletionEntry& e) const {
  // A released record belonged to a finished flow: never valid.
  if (!flows_.resident(e.flow.value())) return false;
  const Flow& f = flows_.at(e.flow.value()).flow;
  return f.active_index != Flow::kNotActive && f.completion_gen == e.gen;
}

void Simulator::complete_flow(FlowId id, bool notify_scheduler) {
  FlowRecord& rec = flows_.at(id.value());
  Flow& f = rec.flow;
  f.state = FlowState::kFinished;
  f.finish_time = now_;

  // value = undelivered bytes: 0 for a clean finish, > 0 for an abandonment.
  if (tracing(obs::TraceDetail::kFlow)) {
    trace_flow(obs::TraceKind::kFlowFinish, f, f.remaining);
  }
  if (m_flow_completion_ != nullptr && f.entered) {
    m_flow_completion_->observe(f.finish_time - f.start_time);
  }

  ECHELON_LOG(kDebug) << "flow " << id << " done at " << now_;

  // Canonical departure order: scheduler hook, then the per-flow callback,
  // then global listeners. Callbacks may submit flows; flows_ never moves a
  // record, so every hook sees the stored record itself.
  if (notify_scheduler) scheduler_->on_flow_departure(*this, f);
  if (FlowCallback cb = std::move(rec.on_done); cb) cb(*this, f);
  for (const FlowCallback& cb : flow_listeners_) cb(*this, f);

  // Done for good: fold the final record into its chunk's digest while it
  // is hot, then retire it -- the last retirement frees the whole chunk.
  std::uint64_t& digest = flow_chunk_digests_[id.value() / kFlowChunk];
  digest = fold_flow(digest, f);
  flows_.retire(id.value());
}

void Simulator::finish_flow(FlowId id) {
  Flow& f = flows_.at(id.value()).flow;
  f.remaining = 0.0;
  f.rate = 0.0;
  remove_active(f);
  complete_flow(id, /*notify_scheduler=*/true);
}

// O(1) swap-and-pop removal from the active set (the seed did a linear
// std::erase). The swap perturbs ascending-FlowId order;
// restore_active_order() repairs it before anything order-sensitive runs.
void Simulator::remove_active(Flow& f) {
  const std::size_t idx = f.active_index;
  assert(idx != Flow::kNotActive && idx < active_flows_.size() &&
         active_flows_[idx] == f.id && "removing an inactive flow");
  const std::size_t last = active_flows_.size() - 1;
  if (idx != last) {
    const FlowId moved = active_flows_[last];
    active_flows_[idx] = moved;
    flows_.at(moved.value()).flow.active_index = idx;
    active_order_dirty_ = true;
  }
  active_flows_.pop_back();
  f.active_index = Flow::kNotActive;
  allocation_dirty_ = true;
}

void Simulator::park_flow(FlowId id) {
  Flow& f = flows_.at(id.value()).flow;
  if (f.state != FlowState::kActive || f.active_index == Flow::kNotActive) {
    return;  // parked, finished, or never entered: nothing to remove
  }
  // Materialize every active flow's bytes *before* pulling this one out:
  // `remaining` must record exactly what was left un-transmitted at the park
  // instant. The epoch moves to now_, so the reallocation below stamps a
  // zero-dt no-op.
  stamp_active_flows(now_);

  remove_active(f);
  f.rate = 0.0;
  f.state = FlowState::kParked;
  // Invalidate any completion-heap entry the flow may still own: after a
  // resume the flow is active again with a valid active_index, so a stale
  // entry from before the park would otherwise pass the validity check.
  f.completion_gen = ++heap_gen_;

  if (tracing(obs::TraceDetail::kCoarse)) {
    trace_flow(obs::TraceKind::kFlowPark, f, f.remaining);
  }

  // The scheduler saw this flow arrive, so it must see it leave (group
  // caches, frozen-member handling). The completion callback and global
  // flow listeners do NOT fire: the flow is suspended, not done -- in
  // particular the EchelonFlow registry must not mark the member finished.
  scheduler_->on_flow_departure(*this, f);
}

void Simulator::resume_flow(FlowId id, const topology::Path& path) {
  Flow& f = flows_.at(id.value()).flow;
  assert(f.state == FlowState::kParked && "resume_flow on non-parked flow");
  if (f.state != FlowState::kParked) return;
  // Re-intern so the flow's route identity matches its new path -- a
  // recovery path computed by route_flow() lands back on the canonical
  // RouteId; an externally crafted path gets its own (still-deduplicated)
  // id. Either way `path` views the interned copy of `route`.
  f.route = routes_.intern(path);
  f.path = routes_.path(f.route);
  f.state = FlowState::kActive;
  f.rate = 0.0;

  if (tracing(obs::TraceDetail::kCoarse)) {
    trace_flow(obs::TraceKind::kFlowResume, f, f.remaining);
  }

  if (!f.entered) {
    // Parked at birth: this is the flow's first real network entry. Fix the
    // start time and fire the arrival listeners the submission path skipped.
    f.entered = true;
    f.start_time = now_;
    const auto parked = parked_labels_.extract(id);
    if (tracing(obs::TraceDetail::kFlow)) {
      trace_flow(obs::TraceKind::kFlowStart, f, f.remaining,
                 parked.empty() ? std::string_view{}
                                : std::string_view(parked.mapped()));
    }
    // Listeners may submit flows; `f` stays valid (flows_ never moves it).
    for (const FlowCallback& cb : flow_arrival_listeners_) cb(*this, f);
    if (f.remaining <= kBytesEpsilon) {
      // Zero-byte flow finally deliverable: completes instantly, never
      // joining the active set (mirrors submit_flow).
      complete_flow(id, /*notify_scheduler=*/false);
      return;
    }
  }

  f.active_index = active_flows_.size();
  active_flows_.push_back(id);
  // The resumed id is almost certainly smaller than the current tail.
  active_order_dirty_ = true;
  allocation_dirty_ = true;
  scheduler_->on_flow_arrival(*this, f);
}

void Simulator::reroute_flow(FlowId id, const topology::Path& path) {
  Flow& f = flows_.at(id.value()).flow;
  assert(f.state == FlowState::kActive && f.active_index != Flow::kNotActive &&
         "reroute_flow on inactive flow");
  f.route = routes_.intern(path);  // view the interned copy (see resume)
  f.path = routes_.path(f.route);
  allocation_dirty_ = true;
  if (tracing(obs::TraceDetail::kCoarse)) {
    // `remaining` is epoch-stamped, not materialized -- observational only.
    trace_flow(obs::TraceKind::kFlowReroute, f, f.remaining);
  }
}

std::optional<topology::Path> Simulator::route_flow(FlowId id) {
  const Flow& f = flows_.at(id.value()).flow;
  if (f.spec.src == f.spec.dst) return topology::Path{};  // loopback: no links
  const std::uint64_t seed =
      f.spec.route_hint != 0 ? f.spec.route_hint : id.value();
  const auto rid = routes_.route(f.spec.src, f.spec.dst, seed);
  if (!rid.has_value()) return std::nullopt;
  return routes_.path(*rid);
}

void Simulator::abandon_flow(FlowId id) {
  Flow& f = flows_.at(id.value()).flow;
  assert(f.state == FlowState::kParked && "abandon_flow on non-parked flow");
  if (f.state != FlowState::kParked) return;
  if (!f.entered) {
    // Parked at birth and never admitted: fire the arrival listeners now so
    // every completion is paired with exactly one arrival -- the EchelonFlow
    // registry requires note_start before note_finish, and a group member
    // that is abandoned unseen must still enter the ledger (it "starts" and
    // finishes at the abandonment instant, delivering nothing). The flow
    // never joins the active set and the scheduler is never notified.
    f.entered = true;
    f.start_time = now_;
    parked_labels_.erase(id);
    // Listeners may submit flows; `f` stays valid (flows_ never moves it).
    for (const FlowCallback& cb : flow_arrival_listeners_) cb(*this, f);
  }
  // Unsuccessful completion: finish_time is fixed and the completion
  // callback + listeners fire so dependent DAG work is released, but
  // `remaining` keeps the undelivered bytes as the loss record. The
  // scheduler is not re-notified -- it saw the departure at park time (and
  // never saw parked-at-birth flows at all).
  if (tracing(obs::TraceDetail::kCoarse)) {
    trace_flow(obs::TraceKind::kFlowAbandon, f, f.remaining);
  }
  complete_flow(id, /*notify_scheduler=*/false);
}

SimTime Simulator::run(SimTime deadline) {
  while (true) {
    // 1. Fire every event due at the current instant, in *submission* order.
    // The batch drain (EventQueue::pop_due) is what guarantees stable order
    // across the whole simultaneity window: events whose timestamps are
    // epsilon-equal but bitwise distinct would otherwise pop in timestamp
    // order, i.e. possibly reverse submission order. Events scheduled by a
    // firing callback carry higher sequence numbers and drain in the next
    // iteration -- still at this instant, still after everything already
    // submitted.
    while (!events_.empty() && time_le(events_.next_time(), now_)) {
      due_cbs_.clear();
      events_.pop_due(now_, due_cbs_);
      for (auto& cb : due_cbs_) {
        cb();
        cb = nullptr;  // release captured state before the next fires
      }
    }

    // 2. Refresh rates if the flow set or control state changed. The stamp
    // materializes every active flow's bytes at `now_` (the only O(active)
    // byte pass in the loop), so the scheduler and allocator see exact
    // remaining counts.
    if (allocation_dirty_) {
      stamp_active_flows(now_);
      reallocate();
      // Retire flows completed by callbacks racing with reallocation --
      // e.g. infinite-rate loopback flows. Sweep in ascending-id order
      // (descending index) so completion callbacks fire as in the seed.
      restore_active_order();
      bool retired = false;
      for (std::size_t i = active_flows_.size(); i-- > 0;) {
        Flow& f = flows_.at(active_flows_[i].value()).flow;
        if (std::isinf(f.rate) || f.remaining <= kBytesEpsilon) {
          finish_flow(f.id);
          retired = true;
        }
      }
      if (retired) continue;  // callbacks may have scheduled work at `now_`
    }

    // 3. Pick the next instant: the heap top, rebuilt by heapify at most
    // once per accounting epoch.
    if (completion_heap_dirty_) rebuild_completion_heap();
    const SimTime next_event = events_.next_time();
    const SimTime next_done = earliest_completion_heap();
    const SimTime next = std::min(next_event, next_done);
    if (next > deadline) {
      // Materialize progress up to the deadline so a later run() resumes
      // exactly where this one stopped.
      if (deadline > now_) stamp_active_flows(deadline);
      now_ = std::max(now_, deadline);
      return now_;
    }
    if (next == kTimeInfinity) return now_;  // quiescent

    // 4. Advance. No byte drain: accounting is lazy, `remaining` stays
    // authoritative at the epoch and is materialized at the next stamp.
    if (next > now_) now_ = next;

    // 5. Retire flows whose completion instant has arrived (within the
    // relative time resolution -- see retire_threshold). Every due entry is
    // popped first (callbacks during finish_flow cannot retire other active
    // flows, so the candidate set is stable), then completion callbacks
    // fire in descending-FlowId order, as the seed's descending-index sweep
    // did.
    const SimTime threshold = retire_threshold(now_);
    retire_scratch_.clear();
    while (!completion_heap_.empty()) {
      const CompletionEntry e = completion_heap_.front();
      const bool valid = entry_valid(e);
      if (valid && e.tc > threshold) break;
      std::pop_heap(completion_heap_.begin(), completion_heap_.end(),
                    LaterCompletion{});
      completion_heap_.pop_back();
      if (valid) retire_scratch_.push_back(e.flow);
    }
    std::sort(retire_scratch_.begin(), retire_scratch_.end(),
              std::greater<FlowId>{});
    for (FlowId id : retire_scratch_) {
      assert(flows_.at(id.value()).flow.active_index != Flow::kNotActive);
      finish_flow(id);
    }
  }
}

}  // namespace echelon::netsim
