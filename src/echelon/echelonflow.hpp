// The EchelonFlow abstraction (paper Definitions 3.1-3.3).
//
// An EchelonFlow H = {f_0 .. f_{|H|-1}} is a set of flows whose ideal finish
// times D = {d_0 .. d_{|H|-1}} are related through an arrangement function of
// the reference time r (the start time of the head flow): d_j = r + offset_j.
//
// This class is the *runtime* object: it binds abstraction-level flow
// positions to simulator flows as they start, fixes the reference time when
// the head flow appears, exposes ideal finish times to schedulers, and
// accumulates tardiness (Eq. 1: t_f = e - d; Eq. 2: t_H = max_j (e_j - d_j)).
//
// Per-member state matters only until t_H is final. The member records,
// the arrangement's offsets and the label share one heap block; once
// complete, retire() frees it. A retired EchelonFlow answers id(), job(),
// weight(), cardinality(), reference_time(), tardiness(), started_count(),
// finished_count(), complete() and coflow_completion_time() exactly as
// before, while members() is empty, label() and arrangement() are empty, and
// ideal_finish(j), flow_tardiness(j) and arrangement().offset(j) throw
// std::out_of_range.

#pragma once

#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string_view>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "echelon/arrangement.hpp"

namespace echelon::ef {

// Per-flow bookkeeping within an EchelonFlow.
struct MemberFlow {
  int index = 0;                       // j, position in the arrangement
  FlowId sim_flow;                     // simulator binding (invalid = not yet started)
  SimTime start_time = kTimeInfinity;  // s_j
  SimTime finish_time = kTimeInfinity; // e_j
  Bytes size = 0.0;

  [[nodiscard]] bool started() const noexcept {
    return start_time < kTimeInfinity;
  }
  [[nodiscard]] bool finished() const noexcept {
    return finish_time < kTimeInfinity;
  }
};

class EchelonFlow {
 public:
  EchelonFlow(EchelonFlowId id, JobId job, const Arrangement& arrangement,
              std::string_view label = {}, double weight = 1.0);

  // Replaces the arrangement before any member has started -- used by the
  // profiling-based calibration path (the paper's "computation profiling")
  // to overwrite an analytic arrangement with measured offsets. The
  // cardinality must not change.
  void set_arrangement(const Arrangement& arrangement);

  [[nodiscard]] EchelonFlowId id() const noexcept { return id_; }
  [[nodiscard]] JobId job() const noexcept { return job_; }
  [[nodiscard]] std::string_view label() const noexcept {
    return block_ ? std::string_view(label_data()) : std::string_view();
  }
  [[nodiscard]] double weight() const noexcept { return weight_; }
  // A copy of the offsets, built on each call: for reports and tests, not
  // for per-pass scheduling (use ideal_finish).
  [[nodiscard]] Arrangement arrangement() const;
  [[nodiscard]] int cardinality() const noexcept { return cardinality_; }
  [[nodiscard]] std::span<const MemberFlow> members() const noexcept {
    if (!block_) return {};
    return {member_data(), static_cast<std::size_t>(cardinality_)};
  }

  // --- runtime binding -------------------------------------------------------

  // Records that flow `index` entered the network at `now` as simulator flow
  // `sim_flow` with `size` bytes. The first member to start fixes the
  // reference time: r = its start time minus its own offset, so that
  // d_head = r + offset_head = s_head (paper: d_0 = r = s_0 in the common
  // case where the head flow is member 0).
  void note_start(int index, FlowId sim_flow, Bytes size, SimTime now);

  // Records that flow `index` finished at `now`.
  void note_finish(int index, SimTime now);

  // --- queries ----------------------------------------------------------------

  [[nodiscard]] bool reference_known() const noexcept {
    return reference_time_.has_value();
  }
  [[nodiscard]] std::optional<SimTime> reference_time() const noexcept {
    return reference_time_;
  }

  // Ideal finish time d_j = r + offset_j. Unknown until the head flow starts.
  [[nodiscard]] std::optional<SimTime> ideal_finish(int index) const {
    if (!reference_time_) return std::nullopt;
    return *reference_time_ + offset(index);
  }

  // Tardiness of member j (Eq. 1), defined once it has finished.
  [[nodiscard]] std::optional<Duration> flow_tardiness(int index) const;

  // Running EchelonFlow tardiness (Eq. 2): max over *finished* members.
  // Equals the definitive t_H once complete().
  [[nodiscard]] Duration tardiness() const noexcept { return max_tardiness_; }

  [[nodiscard]] int started_count() const noexcept { return started_; }
  [[nodiscard]] int finished_count() const noexcept { return finished_; }
  [[nodiscard]] bool complete() const noexcept {
    return finished_ == cardinality_;
  }

  // Completion time of the last flow minus reference time -- the Coflow
  // completion metric, reported for Property-2 comparisons.
  [[nodiscard]] std::optional<Duration> coflow_completion_time() const;

  // --- retirement ---------------------------------------------------------------

  // Frees the heap block (member records, offsets and label), keeping the
  // scalars listed in the header comment. Throws std::logic_error unless
  // complete().
  void retire();
  [[nodiscard]] bool retired() const noexcept { return !block_; }

 private:
  struct FreeBlock {
    void operator()(Duration* p) const noexcept { ::operator delete(p); }
  };

  // True when `index` names a member whose state is still held.
  [[nodiscard]] bool holds(int index) const noexcept {
    return block_ && static_cast<unsigned>(index) <
                         static_cast<unsigned>(cardinality_);
  }
  [[noreturn]] static void no_member(int index);
  // offset_j; throws std::out_of_range unless holds(index).
  [[nodiscard]] Duration offset(int index) const {
    if (!holds(index)) no_member(index);
    return block_[static_cast<std::size_t>(index)];
  }
  // Member j, checked like offset().
  [[nodiscard]] MemberFlow& member(int index) const {
    if (!holds(index)) no_member(index);
    return member_data()[index];
  }
  // The block holds offsets[cardinality], then members[cardinality], then
  // the NUL-terminated label.
  [[nodiscard]] MemberFlow* member_data() const noexcept {
    return reinterpret_cast<MemberFlow*>(block_.get() + cardinality_);
  }
  [[nodiscard]] const char* label_data() const noexcept {
    return reinterpret_cast<const char*>(member_data() + cardinality_);
  }

  EchelonFlowId id_;
  JobId job_;
  // Block start, so ideal_finish reads an offset with one dereference; null
  // once retired.
  std::unique_ptr<Duration[], FreeBlock> block_;
  double weight_ = 1.0;
  std::optional<SimTime> reference_time_;
  Duration max_tardiness_ = -kTimeInfinity;
  SimTime last_finish_ = -kTimeInfinity;  // max_j e_j over finished members
  int cardinality_ = 0;
  int started_ = 0;
  int finished_ = 0;
};

}  // namespace echelon::ef
