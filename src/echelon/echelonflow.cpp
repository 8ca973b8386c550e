#include "echelon/echelonflow.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <string>

namespace echelon::ef {

EchelonFlow::EchelonFlow(EchelonFlowId id, JobId job,
                         const Arrangement& arrangement,
                         std::string_view label, double weight)
    : id_(id), job_(job), weight_(weight), cardinality_(arrangement.size()) {
  const auto n = static_cast<std::size_t>(cardinality_);
  static_assert(alignof(MemberFlow) <= alignof(Duration));
  auto* offsets = static_cast<Duration*>(::operator new(
      n * (sizeof(Duration) + sizeof(MemberFlow)) + label.size() + 1));
  block_.reset(offsets);
  std::uninitialized_copy_n(arrangement.offsets().data(), n, offsets);
  auto* members = reinterpret_cast<MemberFlow*>(offsets + n);
  std::uninitialized_value_construct_n(members, n);
  for (std::size_t j = 0; j < n; ++j) members[j].index = static_cast<int>(j);
  char* text = reinterpret_cast<char*>(members + n);
  *std::copy(label.begin(), label.end(), text) = '\0';
}

void EchelonFlow::no_member(int index) {
  throw std::out_of_range("EchelonFlow: no member " + std::to_string(index));
}

void EchelonFlow::set_arrangement(const Arrangement& arrangement) {
  assert(started_ == 0 && "cannot recalibrate a live EchelonFlow");
  assert(arrangement.size() == cardinality_);
  std::copy_n(arrangement.offsets().data(), cardinality_, block_.get());
}

Arrangement EchelonFlow::arrangement() const {
  if (!block_) return {};
  return Arrangement::from_offsets(
      {block_.get(), block_.get() + cardinality_});
}

void EchelonFlow::note_start(int index, FlowId sim_flow, Bytes size,
                             SimTime now) {
  MemberFlow& m = member(index);
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
    reference_time_ = now - offset(index);
  }
}

void EchelonFlow::note_finish(int index, SimTime now) {
  MemberFlow& m = member(index);
  assert(m.started() && !m.finished());
  m.finish_time = now;
  ++finished_;
  last_finish_ = std::max(last_finish_, now);
  if (const auto d = ideal_finish(index)) {
    max_tardiness_ = std::max(max_tardiness_, now - *d);
  }
}

std::optional<Duration> EchelonFlow::flow_tardiness(int index) const {
  const MemberFlow& m = member(index);
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
  block_.reset();
}

}  // namespace echelon::ef
