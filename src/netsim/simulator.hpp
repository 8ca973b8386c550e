// Fluid flow-level discrete-event simulator.
//
// The simulator advances between "interesting" instants: scheduled events
// (timers, task completions, deferred flow submissions) and flow completion
// times implied by the current rate allocation. Between instants every active
// flow transmits at a constant rate, so progress is exact (no time stepping).
//
// The control loop per instant:
//   1. fire all due events (may submit flows / enqueue tasks),
//   2. if the active flow set changed, materialize per-flow byte counts at
//      the current instant (the "epoch stamp"), let the NetworkScheduler
//      assign weights and rate caps, then recompute rates with the
//      RateAllocator,
//   3. advance to min(next event, earliest flow completion),
//   4. retire flows whose completion time has arrived (callbacks may again
//      mutate state).
//
// Hot-path layout (DESIGN.md "Event-loop fast path"): byte accounting is
// *lazy*. `Flow::remaining` is authoritative only at the accounting epoch
// `epoch_time_`; the up-to-date value is `remaining - rate * (t - epoch)`.
// Rates change only at reallocation boundaries, so one O(active) stamp per
// reallocate() replaces the seed's O(active) drain per event, and completion
// instants come from a min-heap of precomputed completion times instead of a
// linear scan. Per event the loop costs O(log n + retired flows). The test
// certifier (tests/certify.hpp) checks this accounting against its
// definition: every flow's delivered bytes equal the integral of its rates.

#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/chunked_store.hpp"
#include "common/hash.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"
#include "netsim/allocator.hpp"
#include "netsim/compute.hpp"
#include "netsim/event_queue.hpp"
#include "netsim/flow.hpp"
#include "netsim/scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "topology/graph.hpp"
#include "topology/route_table.hpp"

namespace echelon::netsim {

class Simulator {
 public:
  using FlowCallback = std::function<void(Simulator&, const Flow&)>;
  using TaskCallback = std::function<void(Simulator&, const ComputeTask&)>;
  using TimerCallback = std::function<void(Simulator&)>;

  explicit Simulator(const topology::Topology* topo);

  // Non-copyable: owns callbacks holding references to itself.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  // Pass and fill counts of the underlying allocator.
  [[nodiscard]] const RateAllocator::Stats& alloc_stats() const noexcept {
    return allocator_.stats();
  }
  [[nodiscard]] const topology::Topology& topology() const noexcept {
    return *topo_;
  }
  // Route interning table (DESIGN.md §11): every path the simulator puts a
  // flow on is interned here, giving flows a RouteId identity the allocator
  // groups equivalence classes on. Read-mostly telemetry access; mutable so
  // fault-injection helpers can re-intern recovery paths through the same
  // cache.
  [[nodiscard]] topology::RouteTable& routes() noexcept { return routes_; }
  [[nodiscard]] const topology::RouteTable& routes() const noexcept {
    return routes_;
  }

  // --- control plane ---
  // `scheduler` must outlive the simulator run. Defaults to fair sharing.
  void set_scheduler(NetworkScheduler* scheduler) noexcept;
  [[nodiscard]] NetworkScheduler& scheduler() noexcept { return *scheduler_; }

  // --- observability (DESIGN.md §9) ---
  // Attaches a structured-event sink. Emitters only ever *read* simulation
  // state, so decisions are bit-identical with and without a sink; with
  // `sink == nullptr` (the default) every emission site reduces to a single
  // pointer comparison -- zero extra work, zero allocations. `detail`
  // selects which kinds fire (see obs::TraceDetail); the allocator's
  // kAllocPass emission follows the kCoarse level. Sink must outlive the
  // simulator run.
  void set_trace(obs::TraceSink* sink,
                 obs::TraceDetail detail = obs::TraceDetail::kFlow) noexcept;
  [[nodiscard]] obs::TraceSink* trace_sink() const noexcept { return trace_; }
  [[nodiscard]] obs::TraceDetail trace_detail() const noexcept {
    return trace_detail_;
  }

  // Attaches a metrics registry: per-link utilization and active-flow-count
  // series sampled at every control pass, a flow-completion-time histogram
  // and a worker-queue-depth histogram. Same contract as set_trace:
  // read-only, nullptr (the default) detaches and costs one branch.
  // Instrument pointers are resolved here once so sampling never does a
  // name lookup. Registry must outlive the simulator run.
  void set_metrics(obs::MetricsRegistry* registry);
  [[nodiscard]] obs::MetricsRegistry* metrics() const noexcept {
    return metrics_;
  }

  // Current per-link utilization (allocated rate / nominal capacity) into
  // `out`, resized to link_count(). Read-only over active-flow state; the
  // service-plane telemetry flusher samples this at its own cadence,
  // independent of the control-pass sampling set_metrics wires up.
  void link_utilization(std::vector<double>& out) const;

  // --- workers / compute ---
  WorkerId add_worker(NodeId host);
  [[nodiscard]] const Worker& worker(WorkerId id) const {
    return workers_.at(id.value());
  }
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }

  // Enqueues a task on a worker's FIFO queue; it starts as soon as the GPU
  // is free. `on_done` fires at completion.
  TaskId enqueue_task(WorkerId worker, Duration duration, std::string label,
                      JobId job = {}, TaskCallback on_done = {});
  // Valid until the task finishes; after that only while its record chunk
  // is resident (DESIGN.md §6).
  [[nodiscard]] const ComputeTask& task(TaskId id) const {
    return tasks_.at(id.value()).task;
  }

  // Straggler control: tasks *starting* on `worker` after this call run for
  // duration * scale. The currently running task (if any) keeps the scale it
  // started with. scale == 1.0 is bitwise neutral.
  void set_compute_scale(WorkerId worker, double scale) {
    workers_.at(worker.value()).compute_scale = scale;
  }

  // --- flows ---
  // Submits a flow that starts *now*. `on_done` fires at completion.
  // Flow and task records never move, and a record is freed only after it
  // finished, its hooks returned and every other record of its 4096-record
  // chunk finished too (DESIGN.md §6). So references returned by
  // flow()/task() -- and the records hooks receive -- stay valid until the
  // record finishes; after that, check flow_resident() first. The simulator
  // keeps nothing of a released flow: a caller that needs finish times
  // later records them from `on_done` or a flow listener (ServiceLoop does,
  // DESIGN.md §13). `label` is a human-readable
  // tag for the trace (kFlowSubmit/kFlowStart) and error messages only; the
  // simulator keeps no copy of it, except for a flow parked at birth while
  // tracing, until that flow enters the network.
  FlowId submit_flow(FlowSpec spec, FlowCallback on_done = {},
                     std::string_view label = {});
  [[nodiscard]] const Flow& flow(FlowId id) const {
    return flows_.at(id.value()).flow;
  }
  [[nodiscard]] bool flow_resident(FlowId id) const noexcept {
    return flows_.resident(id.value());
  }
  [[nodiscard]] std::size_t flow_count() const noexcept {
    return flows_.size();
  }
  [[nodiscard]] std::size_t active_flow_count() const noexcept {
    return active_flows_.size();
  }
  // The active set (unspecified order between control passes; ascending
  // FlowId right after a control pass). Read-only view for fault injection
  // and diagnostics.
  [[nodiscard]] const std::vector<FlowId>& active_flows() const noexcept {
    return active_flows_;
  }

  // Mutable flow access for schedulers (weights/caps).
  [[nodiscard]] Flow& flow_mutable(FlowId id) {
    return flows_.at(id.value()).flow;
  }

  // --- graceful degradation (fault injection) ---
  // Removes an active flow from the network without finishing it: bytes
  // transmitted so far are materialized, the scheduler sees a departure (its
  // caches must not keep the flow), but the completion callback and global
  // flow listeners do NOT fire -- the flow is suspended, not done. No-op on
  // flows that are not active.
  void park_flow(FlowId id);

  // Puts a parked flow back into the network on `path`, which must be valid
  // in the current topology. Resumes from the parked `remaining`; on the
  // first real entry (flows parked at birth) fixes start_time and fires the
  // arrival listeners. The scheduler sees a (re-)arrival.
  void resume_flow(FlowId id, const topology::Path& path);

  // Replaces an active flow's path in place (fault rerouting) and forces a
  // reallocation.
  void reroute_flow(FlowId id, const topology::Path& path);

  // Recomputes flow `id`'s route in the *current* topology through the
  // interned route cache, using the same ECMP seed submit_flow used
  // (route_hint if set, else the flow id) -- so a recovered flow lands back
  // on its canonical route and its equivalence class. Returns nullopt when
  // the endpoints are currently disconnected. Does not mutate the flow;
  // callers pass the result to resume_flow/reroute_flow.
  [[nodiscard]] std::optional<topology::Path> route_flow(FlowId id);

  // Gives up on a parked flow (retry budget exhausted): the flow completes
  // *unsuccessfully* at the current instant -- finish_time is set and the
  // completion callback and flow listeners fire so dependent work is
  // released, but `remaining` keeps the undelivered byte count as a record
  // of loss. The scheduler is not notified (it saw the departure at park
  // time).
  void abandon_flow(FlowId id);

  // When set, a flow submitted with no route between its endpoints is
  // *parked at birth* (state kParked, not entered, handler invoked with its
  // id) instead of submit_flow throwing std::invalid_argument. Installed by
  // the fault injector, which owns the retry/park policy for outages.
  using UnroutableHandler = std::function<void(Simulator&, FlowId)>;
  void set_unroutable_handler(UnroutableHandler handler) {
    unroutable_handler_ = std::move(handler);
  }

  // Tells the control plane that link capacities / up-down state changed at
  // runtime: forwards to NetworkScheduler::on_topology_change and
  // invalidates the allocation. Fault injectors call this after every
  // topology mutation.
  void notify_topology_change() {
    scheduler_->on_topology_change(*this);
    allocation_dirty_ = true;
  }

  // Accounting generation: bumped exactly when an epoch stamp advances byte
  // counts (dt > 0). Part of the snapshot verification image.
  [[nodiscard]] std::uint64_t accounting_generation() const noexcept {
    return accounting_gen_;
  }

  // --- timers ---
  void schedule_at(SimTime at, TimerCallback cb);
  void schedule_after(Duration delay, TimerCallback cb) {
    schedule_at(now_ + delay, std::move(cb));
  }

  // --- global listeners (metrics collection) ---
  void add_flow_listener(FlowCallback cb) {
    flow_listeners_.push_back(std::move(cb));
  }
  // Fires when a flow enters the network (start time fixed). Used by the
  // EchelonFlow registry to bind reference times under any scheduler.
  void add_flow_arrival_listener(FlowCallback cb) {
    flow_arrival_listeners_.push_back(std::move(cb));
  }
  void add_task_listener(TaskCallback cb) {
    task_listeners_.push_back(std::move(cb));
  }

  // Forces a scheduler + allocator pass before the next advance. Schedulers
  // call this when external state (e.g. a new EchelonFlow registration)
  // changes their decisions.
  void invalidate_allocation() noexcept { allocation_dirty_ = true; }

  // Runs until the event queue is empty and no flows are active, or until
  // `deadline`. Returns the simulation time reached.
  SimTime run(SimTime deadline = kTimeInfinity);

  // Count of scheduler control passes -- a measure of control-plane load.
  [[nodiscard]] std::uint64_t control_invocations() const noexcept {
    return control_invocations_;
  }

  // --- snapshot introspection (src/service, DESIGN.md §13) ---
  // Read-only views of the engine's internal clocks and queues, consumed by
  // the service snapshot layer to build its bitwise verification image. None
  // of these mutate state or observe anything mode-dependent.
  [[nodiscard]] SimTime epoch_time() const noexcept { return epoch_time_; }
  [[nodiscard]] const EventQueue& events() const noexcept { return events_; }
  // Digest of flow record chunk `chunk` (FlowIds chunk * kFlowChunk and up):
  // the snapshot-image fields of each of its flows, folded in completion
  // order as each completes. Once the chunk is released (its first flow is
  // no longer resident) this stands in for its records.
  static constexpr std::size_t kFlowChunk = ChunkedStore<Flow>::kChunk;
  [[nodiscard]] std::uint64_t flow_chunk_digest(std::size_t chunk) const {
    return flow_chunk_digests_.at(chunk);
  }
  // Order-insensitive FNV-1a fold over the completion heap's (tc, flow, gen)
  // triples plus its size and rebuild generation. Two simulators whose
  // histories diverged anywhere upstream of completion scheduling disagree
  // here with overwhelming probability; identical histories agree exactly
  // (the heap's *array* order may differ between lazily-rebuilt heaps, hence
  // the commutative fold).
  [[nodiscard]] std::uint64_t completion_heap_digest() const noexcept {
    std::uint64_t acc = 0;
    for (const CompletionEntry& e : completion_heap_) {
      std::uint64_t h =
          fnv1a_word(kFnvOffset, std::bit_cast<std::uint64_t>(e.tc));
      h = fnv1a_word(h, e.flow.value());
      h = fnv1a_word(h, e.gen);
      acc += h;  // commutative: heap array order is not part of the contract
    }
    return acc ^ (static_cast<std::uint64_t>(completion_heap_.size()) << 1) ^
           heap_gen_;
  }

 private:
  // Completion-time heap entry: the instant `flow` finishes at its current
  // rate, computed at stamp time as `epoch + remaining / rate`. `gen` ties
  // the entry to the rebuild epoch; a mismatch means the entry is stale.
  struct CompletionEntry {
    SimTime tc;
    FlowId flow;
    std::uint64_t gen;
  };
  // Comparator for std::*_heap (max-heap): "a completes later than b" puts
  // the earliest completion (ties: lowest FlowId) at the front.
  struct LaterCompletion {
    [[nodiscard]] bool operator()(const CompletionEntry& a,
                                  const CompletionEntry& b) const noexcept {
      if (a.tc != b.tc) return a.tc > b.tc;
      return a.flow > b.flow;
    }
  };

  void reallocate();
  // True when a sink is attached at (at least) `min_detail` -- the guard in
  // front of every emission site.
  [[nodiscard]] bool tracing(obs::TraceDetail min_detail) const noexcept {
    return trace_ != nullptr && trace_detail_ >= min_detail;
  }
  // Builds and records one flow-lifecycle event from the flow's metadata.
  // Callers gate with tracing() first; out-of-line so the disabled path
  // stays a lone branch.
  void trace_flow(obs::TraceKind kind, const Flow& f, double value,
                  std::string_view label = {});
  // Samples per-link utilization and the active-flow count into metrics_.
  // Called at reallocation boundaries only, and only when a registry is
  // attached.
  void sample_metrics();
  void start_next_task(WorkerId worker);
  void finish_task(TaskId id);
  void finish_flow(FlowId id);
  // Swap-and-pop removal of an active flow from active_flows_ (finish and
  // park share it).
  void remove_active(Flow& f);
  // Shared completion tail: marks the flow finished and fires the departure
  // hooks in their canonical order (scheduler -> per-flow callback -> global
  // listeners). Both the zero-byte instant-completion path and finish_flow
  // funnel through here so the ordering is defined in exactly one place.
  // `notify_scheduler` is false for zero-byte flows, which never arrived
  // from the scheduler's point of view.
  void complete_flow(FlowId id, bool notify_scheduler);
  void fire_timer(std::uint32_t slot);
  // Re-establishes ascending-FlowId order of active_flows_ after swap-and-pop
  // retirements (callback and scheduler tie-break order depend on it).
  void restore_active_order();
  // Materializes every active flow's `remaining` at time `to` and moves the
  // accounting epoch there. O(active); called once per reallocation boundary
  // and per run() deadline, never per event.
  void stamp_active_flows(SimTime to);
  // Rebuilds the completion heap from the current epoch state (heapify,
  // O(active)).
  void rebuild_completion_heap();
  // Incremental heap maintenance for same-instant reallocations: when the
  // accounting epoch did not move, every unchanged flow's heap entry is
  // bitwise still valid, so only the allocator's rate-changed dirty set
  // needs re-stamping (O(changed * log n) instead of O(active)). Called
  // right after a reallocation that kept the epoch in place.
  void patch_completion_heap();
  // True when heap entry `e` still describes its flow's pending completion.
  [[nodiscard]] bool entry_valid(const CompletionEntry& e) const;
  // Appends flow `f` (whose id is the next FlowId) and its callback.
  Flow& store_flow(Flow&& f, FlowCallback&& on_done);
  [[nodiscard]] SimTime earliest_completion_heap();

  const topology::Topology* topo_;
  topology::RouteTable routes_;
  RateAllocator allocator_;
  FairSharingScheduler default_scheduler_;
  NetworkScheduler* scheduler_;

  SimTime now_ = 0.0;
  // Accounting epoch: the instant at which every active flow's `remaining`
  // is authoritative. Invariant: epoch_time_ <= now_.
  SimTime epoch_time_ = 0.0;
  EventQueue events_;

  // A record and its completion callback share one slot, so they are
  // released together.
  struct FlowRecord {
    Flow flow;
    FlowCallback on_done;
  };
  struct TaskRecord {
    ComputeTask task;
    TaskCallback on_done;
    // Next task in its worker's ready FIFO (Worker::queue_head).
    TaskId next_ready = TaskId::invalid();
  };

  // Indexed by FlowId. Chunked, so a Flow& stays valid while callbacks
  // submit more flows; each flow is retired at the end of complete_flow,
  // which frees whole chunks of finished records.
  ChunkedStore<FlowRecord> flows_;
  std::vector<std::uint64_t> flow_chunk_digests_;  // see flow_chunk_digest
  std::vector<FlowId> active_flows_;
  // Reused by reallocate() so steady-state control passes are allocation-free
  // (grows to the high-water mark of the active set, never shrinks).
  std::vector<Flow*> active_scratch_;

  // Completion-time min-heap. Cleared and re-heapified once per
  // accounting epoch; entries invalidated in between are discarded lazily
  // via the generation stamp.
  std::vector<CompletionEntry> completion_heap_;
  bool completion_heap_dirty_ = true;
  std::uint64_t heap_gen_ = 0;
  // Scratch for the heap retirement pass (due flows, sorted descending id).
  std::vector<FlowId> retire_scratch_;
  // Scratch for the step-1 batch event drain (EventQueue::pop_due): all
  // events due within the simultaneity window, in submission order.
  std::vector<EventQueue::Callback> due_cbs_;

  // Timer callbacks live in a pooled side table so the EventQueue entry only
  // captures {this, slot} -- small enough for std::function's small-object
  // buffer, making steady-state schedule_at/fire allocation-free.
  std::vector<TimerCallback> timer_pool_;
  std::vector<std::uint32_t> timer_free_;

  std::vector<Worker> workers_;
  // Indexed by TaskId; retired at the end of finish_task, like flows_.
  ChunkedStore<TaskRecord> tasks_;

  // Labels of flows parked at birth while tracing at kFlow, for the
  // kFlowStart record of their later entry; erased on entry or abandonment.
  std::unordered_map<FlowId, std::string> parked_labels_;

  std::vector<FlowCallback> flow_listeners_;
  std::vector<FlowCallback> flow_arrival_listeners_;
  std::vector<TaskCallback> task_listeners_;
  UnroutableHandler unroutable_handler_;

  bool allocation_dirty_ = false;
  // True when swap-and-pop retirement has perturbed active_flows_ away from
  // ascending-FlowId order.
  bool active_order_dirty_ = false;
  std::uint64_t control_invocations_ = 0;

  // Bumped in stamp_active_flows whenever dt > 0 (the only place byte
  // accounting advances).
  std::uint64_t accounting_gen_ = 0;

  // --- observability (null by default: every emission site is one branch) ---
  obs::TraceSink* trace_ = nullptr;
  obs::TraceDetail trace_detail_ = obs::TraceDetail::kOff;
  obs::MetricsRegistry* metrics_ = nullptr;
  // Instruments resolved once in set_metrics (stable registry node
  // addresses), so sampling never performs a name lookup.
  obs::Histogram* m_flow_completion_ = nullptr;
  obs::Histogram* m_queue_depth_ = nullptr;
  obs::Series* m_active_flows_ = nullptr;
  std::vector<obs::Series*> m_link_util_;   // indexed by LinkId
  std::vector<double> link_rate_scratch_;   // per-link allocated-rate sums
};

}  // namespace echelon::netsim
