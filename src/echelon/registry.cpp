#include "echelon/registry.hpp"

namespace echelon::ef {

EchelonFlowId Registry::create(JobId job, Arrangement arrangement,
                               std::string label, double weight) {
  const EchelonFlowId id{echelonflows_.size()};
  echelonflows_.push_back(std::make_unique<EchelonFlow>(
      id, job, std::move(arrangement), std::move(label), weight));
  // Late registration can turn an active member's deadline from unknown into
  // a real one.
  ++revision_;
  return id;
}

void Registry::note_arrival(const netsim::Flow& flow, SimTime now) {
  const EchelonFlowId gid = flow.spec.group;
  if (!contains(gid)) return;
  EchelonFlow& ef = get(gid);
  const bool had_reference = ef.reference_known();
  ef.note_start(flow.spec.index_in_group, flow.id, flow.spec.size, now);
  // The first started member fixes r, turning every sibling's ideal finish
  // d_j = r + offset_j from unknown to known.
  if (!had_reference && ef.reference_known()) ++revision_;
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

void Registry::advance_complete_prefix() const {
  while (prefix_end_ < echelonflows_.size() &&
         echelonflows_[prefix_end_]->complete()) {
    const EchelonFlow& ef = *echelonflows_[prefix_end_++];
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
    const EchelonFlow& ef = *echelonflows_[i];
    if (ef.complete()) sum += ef.tardiness();
  }
  return sum;
}

Duration Registry::weighted_total_tardiness() const {
  advance_complete_prefix();
  Duration sum = prefix_weighted_tardiness_;
  for (std::size_t i = prefix_end_; i < echelonflows_.size(); ++i) {
    const EchelonFlow& ef = *echelonflows_[i];
    if (ef.complete()) sum += ef.weight() * ef.tardiness();
  }
  return sum;
}

std::vector<const EchelonFlow*> Registry::all() const {
  std::vector<const EchelonFlow*> out;
  out.reserve(echelonflows_.size());
  for (const auto& ef : echelonflows_) out.push_back(ef.get());
  return out;
}

}  // namespace echelon::ef
