// Structured event tracing for the simulation observability layer
// (DESIGN.md §9).
//
// The data plane of observability is a stream of small fixed-size
// TraceEvents emitted by the Simulator, RateAllocator and FaultInjector at
// the instants something *happened*: a flow entered or left the network, a
// control pass ran, a fault fired. Consumers implement
// TraceSink; the stock implementation is TraceRecorder, a bounded ring
// buffer with drop-oldest overflow semantics and a label directory for
// human-readable export (Perfetto, CSV).
//
// No-perturbation contract: emitters only ever *read* simulation state and
// every emission site is guarded by a null-sink branch, so
//   * with no sink attached the simulation performs zero extra work and
//     zero allocations (the steady-state zero-allocation suites run with
//     observability compiled in and prove exactly this), and
//   * with a sink attached the simulation's decisions are bit-identical to
//     an untraced run (tests/test_obs.cpp pins this byte-for-byte).

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"

namespace echelon::obs {

// What happened. Field meaning per kind is documented on TraceEvent.
enum class TraceKind : std::uint8_t {
  // --- flow lifecycle (detail >= kFlow unless noted) ---
  kFlowSubmit,   // submitted (may be parked at birth)
  kFlowStart,    // entered the network (arrival listeners fired)
  kFlowFinish,   // completed (value = undelivered bytes; >0 => abandoned)
  kFlowPark,     // pulled from the network by a fault     (detail >= kCoarse)
  kFlowResume,   // re-entered after an outage             (detail >= kCoarse)
  kFlowReroute,  // path replaced in place                 (detail >= kCoarse)
  kFlowRetry,    // failed resume attempt (FaultInjector)  (detail >= kCoarse)
  kFlowAbandon,  // retry budget exhausted                 (detail >= kCoarse)
  // --- compute phases (detail >= kFlow) ---
  kTaskStart,
  kTaskFinish,
  // --- control plane (detail >= kCoarse) ---
  kControlPass,   // scheduler control() invocation (Simulator::reallocate)
  kAllocPass,     // RateAllocator pass (component count)
  kFaultFired,    // FaultPlan event applied (FaultInjector)
  kCompFill,      // RateAllocator water-filled one component (detail >= kFlow)
  kClassFill,     // equivalence-class count of that fill     (detail >= kFlow)
};

inline constexpr std::size_t kTraceKindCount =
    static_cast<std::size_t>(TraceKind::kClassFill) + 1;

[[nodiscard]] const char* to_string(TraceKind kind) noexcept;

// How much the emitters record. Ordered: each level is a superset of the
// previous one. kCoarse captures control-plane and fault activity (O(passes)
// events); kFlow additionally captures per-flow and per-task lifecycles
// (O(flows + tasks) events) -- the level Perfetto flow tracks need.
enum class TraceDetail : std::uint8_t { kOff = 0, kCoarse = 1, kFlow = 2 };

[[nodiscard]] const char* to_string(TraceDetail detail) noexcept;
// Parses "off" | "coarse" | "flow"; returns false on anything else.
[[nodiscard]] bool trace_detail_from_string(std::string_view name,
                                            TraceDetail* out) noexcept;

// One structured event. Fixed size, trivially copyable; the ring buffer
// stores these by value. Field semantics by kind:
//
//   kind          id            job        ctx              value
//   ------------  ------------  ---------  ---------------  ----------------
//   kFlowSubmit   flow id       job id     group id         size bytes
//   kFlowStart    flow id       job id     group id         size bytes
//   kFlowFinish   flow id       job id     group id         undelivered bytes
//   kFlowPark     flow id       job id     group id         remaining bytes
//   kFlowResume   flow id       job id     group id         remaining bytes
//   kFlowReroute  flow id       job id     group id         remaining bytes
//   kFlowRetry    flow id       job id     attempt #        remaining bytes
//   kFlowAbandon  flow id       job id     group id         bytes lost
//   kTaskStart    task id       job id     worker id        duration s
//   kTaskFinish   task id       job id     worker id        duration s
//   kControlPass  pass index    --         active flows     --
//   kAllocPass    pass index    --         components seen  components filled
//   kFaultFired   fault target  --         FaultKind        factor
//   kCompFill     pass index    --         component id     member count
//   kClassFill    pass index    --         component id     class count
//
// `job` and `ctx` use kNone when not applicable.
struct TraceEvent {
  static constexpr std::uint64_t kNone = ~0ull;

  TraceKind kind = TraceKind::kControlPass;
  SimTime t = 0.0;
  std::uint64_t id = 0;
  std::uint64_t job = kNone;
  std::uint64_t ctx = kNone;
  double value = 0.0;
};

// Consumer interface. `label` carries a human-readable name on *first-seen*
// events only (kFlowSubmit / kFlowStart / kTaskStart); it is empty
// everywhere else so hot emission sites never touch strings.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceEvent& ev, std::string_view label) = 0;
  void record(const TraceEvent& ev) { record(ev, {}); }
};

// Ring-buffered recorder: keeps the most recent `capacity` events
// (drop-oldest on overflow, with an exact dropped count), cumulative
// per-kind counts over *all* recorded events, and an interned label
// directory for flows and tasks. Not thread-safe by design -- one recorder
// per simulation, mirroring the simulator's own single-threadedness; sweep
// runners attach one recorder per point.
class TraceRecorder final : public TraceSink {
 public:
  explicit TraceRecorder(std::size_t capacity = 1u << 16);

  using TraceSink::record;
  void record(const TraceEvent& ev, std::string_view label) override;

  // Events currently retained, oldest first. Materializes a copy (export
  // paths only; never on the simulation hot path).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  // Total events seen / overwritten since construction (recorded >= size).
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return recorded_ - size_;
  }
  // Cumulative count of events of `kind`, including dropped ones.
  [[nodiscard]] std::uint64_t count(TraceKind kind) const noexcept {
    return counts_[static_cast<std::size_t>(kind)];
  }

  // Label directory (empty string_view when the entity was never labeled).
  [[nodiscard]] std::string_view flow_label(std::uint64_t flow_id) const;
  [[nodiscard]] std::string_view task_label(std::uint64_t task_id) const;

  void clear();

 private:
  // Directory key: entity class in the top byte keeps flow and task id
  // spaces disjoint.
  [[nodiscard]] static std::uint64_t flow_key(std::uint64_t id) noexcept {
    return (1ull << 56) | id;
  }
  [[nodiscard]] static std::uint64_t task_key(std::uint64_t id) noexcept {
    return (2ull << 56) | id;
  }
  [[nodiscard]] std::string_view lookup(std::uint64_t key) const;

  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // next write slot once the ring is full
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
  std::array<std::uint64_t, kTraceKindCount> counts_{};
  std::unordered_map<std::uint64_t, std::string> labels_;
};

}  // namespace echelon::obs
