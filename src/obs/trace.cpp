#include "obs/trace.hpp"

#include <algorithm>

namespace echelon::obs {

const char* to_string(TraceKind kind) noexcept {
  switch (kind) {
    case TraceKind::kFlowSubmit: return "flow_submit";
    case TraceKind::kFlowStart: return "flow_start";
    case TraceKind::kFlowFinish: return "flow_finish";
    case TraceKind::kFlowPark: return "flow_park";
    case TraceKind::kFlowResume: return "flow_resume";
    case TraceKind::kFlowReroute: return "flow_reroute";
    case TraceKind::kFlowRetry: return "flow_retry";
    case TraceKind::kFlowAbandon: return "flow_abandon";
    case TraceKind::kTaskStart: return "task_start";
    case TraceKind::kTaskFinish: return "task_finish";
    case TraceKind::kControlPass: return "control_pass";
    case TraceKind::kAllocPass: return "alloc_pass";
    case TraceKind::kFaultFired: return "fault_fired";
    case TraceKind::kCompFill: return "comp_fill";
    case TraceKind::kClassFill: return "class_fill";
  }
  return "?";
}

const char* to_string(TraceDetail detail) noexcept {
  switch (detail) {
    case TraceDetail::kOff: return "off";
    case TraceDetail::kCoarse: return "coarse";
    case TraceDetail::kFlow: return "flow";
  }
  return "?";
}

bool trace_detail_from_string(std::string_view name,
                              TraceDetail* out) noexcept {
  if (name == "off") {
    *out = TraceDetail::kOff;
  } else if (name == "coarse") {
    *out = TraceDetail::kCoarse;
  } else if (name == "flow") {
    *out = TraceDetail::kFlow;
  } else {
    return false;
  }
  return true;
}

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void TraceRecorder::record(const TraceEvent& ev, std::string_view label) {
  ++recorded_;
  ++counts_[static_cast<std::size_t>(ev.kind)];
  if (!label.empty()) {
    switch (ev.kind) {
      case TraceKind::kFlowSubmit:
      case TraceKind::kFlowStart:
        labels_.try_emplace(flow_key(ev.id), label);
        break;
      case TraceKind::kTaskStart:
        labels_.try_emplace(task_key(ev.id), label);
        break;
      default:
        break;  // labels are only interned for first-seen entity events
    }
  }
  if (size_ < capacity_) {
    ring_.push_back(ev);
    ++size_;
    return;
  }
  // Full: overwrite the oldest slot (head_ is the oldest once wrapped).
  ring_[head_] = ev;
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  if (size_ < capacity_) {
    out.assign(ring_.begin(), ring_.end());
    return out;
  }
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  return out;
}

std::string_view TraceRecorder::lookup(std::uint64_t key) const {
  const auto it = labels_.find(key);
  return it != labels_.end() ? std::string_view(it->second)
                             : std::string_view{};
}

std::string_view TraceRecorder::flow_label(std::uint64_t flow_id) const {
  return lookup(flow_key(flow_id));
}

std::string_view TraceRecorder::task_label(std::uint64_t task_id) const {
  return lookup(task_key(task_id));
}

void TraceRecorder::clear() {
  ring_.clear();
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
  counts_.fill(0);
  labels_.clear();
}

}  // namespace echelon::obs
