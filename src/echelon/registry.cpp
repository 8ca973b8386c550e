#include "echelon/registry.hpp"

#include <stdexcept>
#include <string>

namespace echelon::ef {

void Registry::throw_released(EchelonFlowId id) {
  throw std::out_of_range("Registry: EchelonFlow " +
                          std::to_string(id.value()) + " was released");
}

EchelonFlowId Registry::create(JobId job, const Arrangement& arrangement,
                               std::string_view label, double weight) {
  const EchelonFlowId id{echelonflows_.size()};
  echelonflows_.push_back(EchelonFlow(id, job, arrangement, label, weight));
  return id;
}

void Registry::note_arrival(const netsim::Flow& flow, SimTime now) {
  const EchelonFlowId gid = flow.spec.group;
  if (!contains(gid)) return;
  get(gid).note_start(flow.spec.index_in_group, flow.id, flow.spec.size, now);
}

void Registry::note_departure(const netsim::Flow& flow, SimTime now) {
  const EchelonFlowId gid = flow.spec.group;
  if (!contains(gid)) return;
  get(gid).note_finish(flow.spec.index_in_group, now);
}

void Registry::attach(netsim::Simulator& sim) {
  sim.add_flow_arrival_listener(
      [this](netsim::Simulator& s, const netsim::Flow& f) {
        note_arrival(f, s.now());
      });
  sim.add_flow_listener([this](netsim::Simulator& s, const netsim::Flow& f) {
    note_departure(f, s.now());
  });
}

void Registry::retire(EchelonFlowId id) {
  get(id).retire();
  // The prefix sums must cover a record before it goes; every record the
  // cursor can reach is complete, so one advance covers them all.
  advance_complete_prefix();
  while (released_ < echelonflows_.size()) {
    const EchelonFlow& ef = echelonflows_.at(released_);
    if (!ef.retired()) break;
    for (const ReleaseListener& cb : release_listeners_) cb(ef);
    echelonflows_.retire(released_++);
  }
}

void Registry::advance_complete_prefix() const {
  while (prefix_end_ < echelonflows_.size() &&
         echelonflows_.at(prefix_end_).complete()) {
    const EchelonFlow& ef = echelonflows_.at(prefix_end_++);
    prefix_tardiness_ += ef.tardiness();
    prefix_weighted_tardiness_ += ef.weight() * ef.tardiness();
  }
}

// Both sums continue the prefix's running sum with the same additions in
// the same order as a scan from 0, so they are bit-identical to one.
Duration Registry::total_tardiness() const {
  advance_complete_prefix();
  Duration sum = prefix_tardiness_;
  for (std::size_t i = prefix_end_; i < echelonflows_.size(); ++i) {
    const EchelonFlow& ef = echelonflows_.at(i);
    if (ef.complete()) sum += ef.tardiness();
  }
  return sum;
}

Duration Registry::weighted_total_tardiness() const {
  advance_complete_prefix();
  Duration sum = prefix_weighted_tardiness_;
  for (std::size_t i = prefix_end_; i < echelonflows_.size(); ++i) {
    const EchelonFlow& ef = echelonflows_.at(i);
    if (ef.complete()) sum += ef.weight() * ef.tardiness();
  }
  return sum;
}

std::vector<const EchelonFlow*> Registry::all() const {
  std::vector<const EchelonFlow*> out;
  out.reserve(echelonflows_.size() - released_);
  for (std::size_t i = released_; i < echelonflows_.size(); ++i) {
    out.push_back(&echelonflows_.at(i));
  }
  return out;
}

}  // namespace echelon::ef
