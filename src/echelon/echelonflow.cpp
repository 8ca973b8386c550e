#include "echelon/echelonflow.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace echelon::ef {

void EchelonFlow::note_start(int index, FlowId sim_flow, Bytes size,
                             SimTime now) {
  assert(index >= 0 && index < cardinality_);
  MemberFlow& m = members_.at(static_cast<std::size_t>(index));
  assert(!m.started() && "member flow started twice");
  m.sim_flow = sim_flow;
  m.size = size;
  m.start_time = now;
  ++started_;
  if (!reference_time_) {
    // Fig. 6: the head flow (first to start) anchors the arrangement. All
    // later ideal finish times derive from r, even for flows that start late
    // -- their d_j may precede their own start time, which is exactly the
    // paper's "advance the ideal finish time to offset the delay".
    reference_time_ = now - arrangement_.offset(index);
  }
}

void EchelonFlow::note_finish(int index, SimTime now) {
  assert(index >= 0 && index < cardinality_);
  MemberFlow& m = members_.at(static_cast<std::size_t>(index));
  assert(m.started() && !m.finished());
  m.finish_time = now;
  ++finished_;
  last_finish_ = std::max(last_finish_, now);
  if (const auto d = ideal_finish(index)) {
    max_tardiness_ = std::max(max_tardiness_, now - *d);
  }
}

std::optional<SimTime> EchelonFlow::ideal_finish(int index) const {
  if (!reference_time_) return std::nullopt;
  return *reference_time_ + arrangement_.offset(index);
}

std::optional<Duration> EchelonFlow::flow_tardiness(int index) const {
  const MemberFlow& m = members_.at(static_cast<std::size_t>(index));
  if (!m.finished()) return std::nullopt;
  const auto d = ideal_finish(index);
  if (!d) return std::nullopt;
  return m.finish_time - *d;
}

std::optional<Duration> EchelonFlow::coflow_completion_time() const {
  if (!complete() || !reference_time_) return std::nullopt;
  return last_finish_ - *reference_time_;
}

void EchelonFlow::retire() {
  if (!complete()) {
    throw std::logic_error("EchelonFlow::retire: EchelonFlow " +
                           std::to_string(id_.value()) + " has " +
                           std::to_string(finished_) + " of " +
                           std::to_string(cardinality_) +
                           " members finished");
  }
  // Swap with empty containers: clear() would keep the capacity.
  std::vector<MemberFlow>().swap(members_);
  Arrangement none;
  std::swap(arrangement_, none);
  std::string().swap(label_);
  retired_ = true;
}

}  // namespace echelon::ef
