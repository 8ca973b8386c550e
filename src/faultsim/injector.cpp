#include "faultsim/injector.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/log.hpp"

namespace echelon::faultsim {

namespace {
constexpr double kNoNominal = std::numeric_limits<double>::quiet_NaN();

// Rejects event `ev` (plan index `index`): `what` target is not one of the
// `count` the deployment has.
[[noreturn]] void reject(const FaultEvent& ev, std::size_t index,
                         const char* what, std::size_t count) {
  std::ostringstream os;
  os << "fault plan event " << index << " (" << ev.at << ' '
     << to_string(ev.kind) << ' ' << ev.target << "): no " << what << ' '
     << ev.target << " (there are " << count << ')';
  throw std::invalid_argument(os.str());
}
}  // namespace

FaultInjector::FaultInjector(netsim::Simulator* sim, topology::Topology* topo,
                             const FaultPlan* plan)
    : sim_(sim), topo_(topo), plan_(plan) {
  assert(sim != nullptr && topo != nullptr && plan != nullptr);
  assert(&sim->topology() == topo &&
         "injector topology must be the simulator's topology");
  node_down_links_.resize(topo_->node_count());
  nominal_caps_.assign(topo_->link_count(), kNoNominal);
}

void FaultInjector::arm() {
  for (std::size_t i = 0; i < plan_->events.size(); ++i) {
    const FaultEvent& ev = plan_->events[i];
    switch (ev.kind) {
      case FaultKind::kBrownout:
      case FaultKind::kBrownoutEnd:
        if (ev.target == kAllLinks) break;
        [[fallthrough]];
      case FaultKind::kLinkDown:
      case FaultKind::kLinkUp:
        if (ev.target >= topo_->link_count()) {
          reject(ev, i, "link", topo_->link_count());
        }
        break;
      case FaultKind::kNodeDown:
      case FaultKind::kNodeUp:
        if (ev.target >= topo_->node_count()) {
          reject(ev, i, "node", topo_->node_count());
        }
        break;
      default:
        break;
    }
  }
  // Graceful-degradation hooks are installed unconditionally so behaviour
  // is uniform across plans; with a zero-fault plan they are pure no-ops
  // and the run is byte-identical to one without an injector.
  sim_->set_unroutable_handler([this](netsim::Simulator&, FlowId id) {
    // Parked at birth: no route existed at submission. Under an aborted job
    // the restart resumes it; otherwise the outage retry policy owns it.
    const bool aborted = [&] {
      const JobId job = sim_->flow(id).spec.job;
      return job.valid() &&
             std::binary_search(aborted_jobs_.begin(), aborted_jobs_.end(),
                                job.value());
    }();
    park(id, aborted ? ParkReason::kAbort : ParkReason::kOutage);
  });
  sim_->add_flow_arrival_listener(
      [this](netsim::Simulator& sim, const netsim::Flow& flow) {
        const JobId job = flow.spec.job;
        if (!job.valid() ||
            !std::binary_search(aborted_jobs_.begin(), aborted_jobs_.end(),
                                job.value())) {
          return;
        }
        // The flow is not yet in the active set (arrival listeners fire
        // first), so defer the park to the same instant's next event batch.
        const FlowId id = flow.id;
        sim.schedule_at(sim.now(), [this, id](netsim::Simulator& s) {
          // A zero-byte flow finishes right after this listener returns, and
          // its record may be released with its chunk before this runs.
          if (!s.flow_resident(id)) return;
          const netsim::Flow& f = s.flow(id);
          if (f.state == netsim::FlowState::kActive &&
              f.active_index != netsim::Flow::kNotActive) {
            park(id, ParkReason::kAbort);
          }
        });
      });
  for (std::size_t i = 0; i < plan_->events.size(); ++i) {
    const FaultEvent& ev = plan_->events[i];
    sim_->schedule_at(ev.at,
                      [this, ev, i](netsim::Simulator&) { apply(ev, i); });
  }
}

FaultOutcome& FaultInjector::outcome(FlowId id) {
  if (rows_.size() <= id.value()) {
    rows_.resize(id.value() + 1);
    park_records_.resize(id.value() + 1);
  }
  Row& row = rows_[id.value()];
  if (!row.touched) {
    row.touched = true;
    row.data.flow = id;
    row.data.job = sim_->flow(id).spec.job;
  }
  return row.data;
}

std::vector<FaultOutcome> FaultInjector::outcomes() const {
  std::vector<FaultOutcome> out;
  for (const Row& row : rows_) {
    if (row.touched) out.push_back(row.data);
  }
  return out;
}

bool FaultInjector::is_parked(FlowId id) const {
  return std::binary_search(parked_.begin(), parked_.end(), id);
}

void FaultInjector::apply(const FaultEvent& ev, std::size_t index) {
  if ((ev.kind == FaultKind::kStraggler ||
       ev.kind == FaultKind::kStragglerEnd) &&
      ev.target >= sim_->worker_count()) {
    reject(ev, index, "worker", sim_->worker_count());
  }
  ++summary_.events_fired;
  if (trace_ != nullptr) {
    trace_->record(
        obs::TraceEvent{.kind = obs::TraceKind::kFaultFired,
                        .t = sim_->now(),
                        .id = ev.target,
                        .job = obs::TraceEvent::kNone,
                        .ctx = static_cast<std::uint64_t>(ev.kind),
                        .value = ev.factor});
  }
  ECHELON_LOG(kDebug) << "fault " << to_string(ev.kind) << " target "
                      << ev.target << " at " << sim_->now();
  switch (ev.kind) {
    case FaultKind::kLinkDown: {
      const LinkId link{ev.target};
      if (!topo_->link_up(link)) break;  // already down (overlapping faults)
      topo_->set_link_up(link, false);
      sim_->notify_topology_change();
      sweep_broken_paths();
      break;
    }
    case FaultKind::kLinkUp: {
      const LinkId link{ev.target};
      if (topo_->link_up(link)) break;
      topo_->set_link_up(link, true);
      sim_->notify_topology_change();
      try_resume_all();
      break;
    }
    case FaultKind::kNodeDown: {
      const NodeId node{ev.target};
      auto& taken = node_down_links_.at(node.value());
      if (!taken.empty()) break;  // node already down
      for (const LinkId link : topo_->incident_links(node)) {
        if (!topo_->link_up(link)) continue;
        topo_->set_link_up(link, false);
        taken.push_back(link);
      }
      if (taken.empty()) break;  // every incident link was already down
      sim_->notify_topology_change();
      sweep_broken_paths();
      break;
    }
    case FaultKind::kNodeUp: {
      const NodeId node{ev.target};
      auto& taken = node_down_links_.at(node.value());
      if (taken.empty()) break;
      for (const LinkId link : taken) topo_->set_link_up(link, true);
      taken.clear();
      sim_->notify_topology_change();
      try_resume_all();
      break;
    }
    case FaultKind::kBrownout: {
      const auto dim = [this, &ev](LinkId link) {
        double& nominal = nominal_caps_.at(link.value());
        if (std::isnan(nominal)) nominal = topo_->link(link).capacity;
        topo_->set_link_capacity(link, nominal * ev.factor);
      };
      if (ev.target == kAllLinks) {
        for (std::size_t l = 0; l < topo_->link_count(); ++l) dim(LinkId{l});
      } else {
        dim(LinkId{ev.target});
      }
      sim_->notify_topology_change();
      break;
    }
    case FaultKind::kBrownoutEnd: {
      const auto restore = [this](LinkId link) {
        double& nominal = nominal_caps_.at(link.value());
        if (std::isnan(nominal)) return;  // no matching brownout
        topo_->set_link_capacity(link, nominal);  // exact nominal value
        nominal = kNoNominal;
      };
      if (ev.target == kAllLinks) {
        for (std::size_t l = 0; l < topo_->link_count(); ++l) {
          restore(LinkId{l});
        }
      } else {
        restore(LinkId{ev.target});
      }
      sim_->notify_topology_change();
      break;
    }
    case FaultKind::kStraggler:
      sim_->set_compute_scale(WorkerId{ev.target}, ev.factor);
      break;
    case FaultKind::kStragglerEnd:
      sim_->set_compute_scale(WorkerId{ev.target}, 1.0);
      break;
    case FaultKind::kJobAbort: {
      const auto pos = std::lower_bound(aborted_jobs_.begin(),
                                        aborted_jobs_.end(), ev.target);
      if (pos != aborted_jobs_.end() && *pos == ev.target) break;
      aborted_jobs_.insert(pos, ev.target);
      // Park the job's active flows, ascending id (mode-independent order).
      std::vector<FlowId> ids = sim_->active_flows();
      std::sort(ids.begin(), ids.end());
      for (const FlowId id : ids) {
        const netsim::Flow& f = sim_->flow(id);
        if (f.spec.job.valid() && f.spec.job.value() == ev.target) {
          park(id, ParkReason::kAbort);
        }
      }
      break;
    }
    case FaultKind::kJobRestart: {
      const auto pos = std::lower_bound(aborted_jobs_.begin(),
                                        aborted_jobs_.end(), ev.target);
      if (pos == aborted_jobs_.end() || *pos != ev.target) break;
      aborted_jobs_.erase(pos);
      // Resume the job's abort-parked flows, ascending id. A flow whose
      // endpoints are still disconnected (overlapping outage) moves to the
      // outage retry policy instead of waiting forever.
      const std::vector<FlowId> parked = parked_;  // resume mutates parked_
      for (const FlowId id : parked) {
        if (!is_parked(id)) continue;
        if (park_records_.at(id.value()).reason != ParkReason::kAbort) {
          continue;
        }
        const netsim::Flow& f = sim_->flow(id);
        if (!f.spec.job.valid() || f.spec.job.value() != ev.target) continue;
        auto path = sim_->route_flow(id);
        if (path.has_value()) {
          resume(id, *path);
        } else {
          park_records_.at(id.value()).reason = ParkReason::kOutage;
          schedule_retry(id);
        }
      }
      break;
    }
  }
}

void FaultInjector::sweep_broken_paths() {
  // Copy + sort: decisions must follow ascending FlowId, never the
  // simulator's internal active-set order (mode-dependent mid-instant).
  std::vector<FlowId> ids = sim_->active_flows();
  std::sort(ids.begin(), ids.end());
  for (const FlowId id : ids) {
    const netsim::Flow& f = sim_->flow(id);
    bool broken = false;
    for (const LinkId link : f.path) {
      if (!topo_->link_up(link)) {
        broken = true;
        break;
      }
    }
    if (!broken) continue;
    auto path = sim_->route_flow(id);
    if (path.has_value()) {
      sim_->reroute_flow(id, *path);
      ++outcome(id).reroutes;
      ++summary_.reroutes;
    } else {
      park(id, ParkReason::kOutage);
    }
  }
}

void FaultInjector::try_resume_all() {
  const std::vector<FlowId> parked = parked_;  // resume mutates parked_
  for (const FlowId id : parked) {
    if (!is_parked(id)) continue;
    if (park_records_.at(id.value()).reason == ParkReason::kAbort) continue;
    auto path = sim_->route_flow(id);
    if (!path.has_value()) continue;  // stay parked; retry timer still runs
    resume(id, *path);
  }
}

void FaultInjector::park(FlowId id, ParkReason reason) {
  sim_->park_flow(id);  // no-op if the flow was parked at birth
  FaultOutcome& out = outcome(id);
  ++out.parks;
  ++summary_.parks;
  ParkRecord& rec = park_records_.at(id.value());
  rec.parked_at = sim_->now();
  rec.reason = reason;
  rec.attempts = 0;  // retry budget is per park episode
  const auto pos = std::lower_bound(parked_.begin(), parked_.end(), id);
  assert(pos == parked_.end() || *pos != id);
  parked_.insert(pos, id);
  if (reason == ParkReason::kOutage) schedule_retry(id);
}

void FaultInjector::schedule_retry(FlowId id) {
  sim_->schedule_after(plan_->retry_backoff,
                       [this, id](netsim::Simulator&) { retry(id); });
}

void FaultInjector::retry(FlowId id) {
  if (!is_parked(id)) return;  // resumed (or abandoned) in the meantime
  ParkRecord& rec = park_records_.at(id.value());
  if (rec.reason == ParkReason::kAbort) return;  // waits for job restart
  const netsim::Flow& f = sim_->flow(id);
  auto path = sim_->route_flow(id);
  if (path.has_value()) {
    resume(id, *path);
    return;
  }
  ++rec.attempts;
  ++outcome(id).retries;
  ++summary_.retries;
  if (trace_ != nullptr) {
    trace_->record(obs::TraceEvent{
        .kind = obs::TraceKind::kFlowRetry,
        .t = sim_->now(),
        .id = id.value(),
        .job = f.spec.job.value(),
        .ctx = static_cast<std::uint64_t>(rec.attempts),
        .value = f.remaining});
  }
  if (rec.attempts >= plan_->max_retries) {
    abandon(id);
  } else {
    schedule_retry(id);
  }
}

void FaultInjector::resume(FlowId id, const topology::Path& path) {
  FaultOutcome& out = outcome(id);
  out.downtime += sim_->now() - park_records_.at(id.value()).parked_at;
  summary_.downtime += sim_->now() - park_records_.at(id.value()).parked_at;
  const auto pos = std::lower_bound(parked_.begin(), parked_.end(), id);
  assert(pos != parked_.end() && *pos == id);
  parked_.erase(pos);
  ++summary_.resumes;
  sim_->resume_flow(id, path);
}

void FaultInjector::abandon(FlowId id) {
  FaultOutcome& out = outcome(id);
  out.downtime += sim_->now() - park_records_.at(id.value()).parked_at;
  summary_.downtime += sim_->now() - park_records_.at(id.value()).parked_at;
  out.abandoned = true;
  out.bytes_lost = sim_->flow(id).remaining;
  ++summary_.abandoned;
  const auto pos = std::lower_bound(parked_.begin(), parked_.end(), id);
  assert(pos != parked_.end() && *pos == id);
  parked_.erase(pos);
  sim_->abandon_flow(id);
}

}  // namespace echelon::faultsim
