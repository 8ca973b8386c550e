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
// Per-member state matters only until t_H is final. Once complete, retire()
// frees it: a retired EchelonFlow answers id(), job(), weight(),
// cardinality(), reference_time(), tardiness(), started_count(),
// finished_count(), complete() and coflow_completion_time() exactly as
// before, while members() is empty, label() and arrangement() are empty, and
// ideal_finish(j), flow_tardiness(j) and arrangement().offset(j) throw
// std::out_of_range.

#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <vector>

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
  EchelonFlow(EchelonFlowId id, JobId job, Arrangement arrangement,
              std::string label = {}, double weight = 1.0)
      : id_(id),
        job_(job),
        arrangement_(std::move(arrangement)),
        label_(std::move(label)),
        weight_(weight),
        members_(static_cast<std::size_t>(arrangement_.size())),
        cardinality_(arrangement_.size()) {
    for (std::size_t j = 0; j < members_.size(); ++j) {
      members_[j].index = static_cast<int>(j);
    }
  }

  // Replaces the arrangement before any member has started -- used by the
  // profiling-based calibration path (the paper's "computation profiling")
  // to overwrite an analytic arrangement with measured offsets. The
  // cardinality must not change.
  void set_arrangement(Arrangement arrangement) {
    assert(started_ == 0 && "cannot recalibrate a live EchelonFlow");
    assert(arrangement.size() == cardinality_);
    arrangement_ = std::move(arrangement);
  }

  [[nodiscard]] EchelonFlowId id() const noexcept { return id_; }
  [[nodiscard]] JobId job() const noexcept { return job_; }
  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  [[nodiscard]] double weight() const noexcept { return weight_; }
  [[nodiscard]] const Arrangement& arrangement() const noexcept {
    return arrangement_;
  }
  [[nodiscard]] int cardinality() const noexcept { return cardinality_; }
  [[nodiscard]] const std::vector<MemberFlow>& members() const noexcept {
    return members_;
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
  [[nodiscard]] std::optional<SimTime> ideal_finish(int index) const;

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

  // Frees the per-member records, the arrangement's offsets and the label,
  // keeping the scalars listed in the header comment. Throws
  // std::logic_error unless complete().
  void retire();
  [[nodiscard]] bool retired() const noexcept { return retired_; }

 private:
  EchelonFlowId id_;
  JobId job_;
  Arrangement arrangement_;
  std::string label_;
  double weight_ = 1.0;

  std::vector<MemberFlow> members_;
  std::optional<SimTime> reference_time_;
  Duration max_tardiness_ = -kTimeInfinity;
  SimTime last_finish_ = -kTimeInfinity;  // max_j e_j over finished members
  int cardinality_ = 0;
  int started_ = 0;
  int finished_ = 0;
  bool retired_ = false;
};

}  // namespace echelon::ef
