// Definition-level certifier for simulation results (DESIGN.md §6).
//
// The simulator's results rest on two definitions: the weighted max-min
// rates the allocator hands out, and EchelonFlow tardiness
// t_H = max_j (e_j - d_j) with d_j = r + offset_j (paper Eqs. 1-2). This
// header checks both directly, instead of against a second implementation
// that shares the production path's round form:
//
//   * certify_allocation(topo, flows) -- one allocation against the
//     textbook characterisation of weighted max-min with demands, which
//     fixes the allocation uniquely. For every routed flow:
//       - its rate is finite, >= 0 and at most its cap;
//       - the rates on each link sum to at most its capacity (a down link
//         carries nothing);
//       - a flow below its cap has a bottleneck: a saturated link on its
//         path on which no flow gets a larger rate/weight share. Weights are
//         clamped at netsim::kMinFlowWeight, as the allocator does.
//   * Certifier -- an obs::TraceSink that certifies a whole run. It reads
//     flows through the Simulator's const accessors when events arrive:
//       - kAllocPass (the allocator's last statement, so every rate is
//         written): certify_allocation over the active set, then integrate
//         each flow's rate, which is constant until the next pass;
//       - kFlowPark / kFlowFinish: the flow's delivered bytes -- the
//         integral of its rates -- must equal size - ev.value;
//       - kFlowFinish of an EchelonFlow's last member (ev.ctx names the
//         group): rebuild its t_H from the sink's own kFlowStart /
//         kFlowFinish times and the group's members and offsets, which are
//         still held -- a service retires a finished job's groups only after
//         its run returns;
//       - after the run, certify_tardiness() compares each rebuilt t_H to
//         EchelonFlow::tardiness(), and their creation-order sum to
//         Registry::total_tardiness(). A complete group that was never
//         rebuilt fails.
//     Byte conservation is the independent oracle for the lazy event loop:
//     a flow retired early or late shows up as missing or extra bytes.
//   * certified_service_run(jobs, spec) -- a cluster-shaped run through
//     ServiceLoop (run_experiment does not expose its Simulator) with the
//     certifier attached, returning the full report.
//
// Tolerances. Rates and capacities compare with a relative 1e-9 plus an
// absolute kAbsRate (1e-6 B/s); rate/weight shares compare in rate units
// with the same terms. Delivered bytes compare within
//   kBytesEpsilon + 1e-9 * size + rate * kTimeEpsilon * max(1, t),
// where the last term is the simulator's retire threshold: a flow retires
// once its completion instant lies within kTimeEpsilon * max(1, t) of now.
// Tardiness compares within 1e-9 * max(1, |t_H|).

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/experiment.hpp"
#include "cluster/job.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "echelon/registry.hpp"
#include "faultsim/fault_plan.hpp"
#include "netsim/allocator.hpp"
#include "netsim/flow.hpp"
#include "netsim/simulator.hpp"
#include "obs/trace.hpp"
#include "service/arrivals.hpp"
#include "service/service.hpp"
#include "topology/graph.hpp"

namespace echelon::certify {

inline constexpr double kRelTol = 1e-9;
inline constexpr double kAbsRate = 1e-6;  // B/s

// What a certification covered, and what it found wrong. Counts make a
// passing report non-vacuous: tests assert the interesting cases happened.
struct Report {
  std::uint64_t passes = 0;          // allocation passes certified
  std::uint64_t flows_checked = 0;   // routed flow rates checked
  std::uint64_t below_cap = 0;       // of those, below cap: bottleneck found
  std::uint64_t saturated_links = 0;        // summed over passes
  std::uint64_t saturated_spine_links = 0;  // ... switch-to-switch links
  std::uint64_t byte_checks = 0;     // park + finish conservation checks
  std::uint64_t parks = 0;
  std::uint64_t finishes = 0;
  std::uint64_t faults = 0;          // kFaultFired events seen
  std::uint64_t reroutes = 0;        // kFlowReroute events seen
  std::uint64_t echelonflows = 0;    // complete EchelonFlows rebuilt
  std::uint64_t retired = 0;         // of those, retired by the end
  double worst_byte_error = 0.0;     // max |delivered - expected| / size
  std::uint64_t violation_count = 0;
  std::vector<std::string> violations;  // the first kKeep, verbatim

  static constexpr std::size_t kKeep = 8;

  [[nodiscard]] bool ok() const noexcept { return violation_count == 0; }

  void fail(std::string what) {
    if (violations.size() < kKeep) violations.push_back(std::move(what));
    ++violation_count;
  }

  Report& operator+=(const Report& o) {
    passes += o.passes;
    flows_checked += o.flows_checked;
    below_cap += o.below_cap;
    saturated_links += o.saturated_links;
    saturated_spine_links += o.saturated_spine_links;
    byte_checks += o.byte_checks;
    parks += o.parks;
    finishes += o.finishes;
    faults += o.faults;
    reroutes += o.reroutes;
    echelonflows += o.echelonflows;
    retired += o.retired;
    worst_byte_error = std::max(worst_byte_error, o.worst_byte_error);
    for (const std::string& v : o.violations) {
      if (violations.size() < kKeep) violations.push_back(v);
    }
    violation_count += o.violation_count;
    return *this;
  }

  [[nodiscard]] std::string summary() const {
    std::ostringstream os;
    os << passes << " passes, " << flows_checked << " rates ("
       << below_cap << " below cap), " << saturated_links
       << " saturated links (" << saturated_spine_links << " spine), "
       << byte_checks << " byte checks (" << parks << " parks, " << finishes
       << " finishes, worst rel error " << worst_byte_error << "), "
       << faults << " faults, " << reroutes << " reroutes, " << echelonflows
       << " EchelonFlows (" << retired << " retired); " << violation_count
       << " violations";
    for (const std::string& v : violations) os << "\n  " << v;
    return os.str();
  }
};

namespace detail {

// Per-link scratch reused across passes.
struct LinkScratch {
  std::vector<double> load;       // sum of rates
  std::vector<double> max_share;  // max rate / weight over crossing flows
  std::vector<std::uint8_t> saturated;
};

[[nodiscard]] inline double clamped_weight(const netsim::Flow& f) noexcept {
  return f.weight > netsim::kMinFlowWeight ? f.weight : netsim::kMinFlowWeight;
}

// A leaf-spine uplink (any switch-to-switch link): traffic crosses one only
// when it leaves its leaf.
[[nodiscard]] inline bool is_spine_link(const topology::Topology& topo,
                                        LinkId lid) {
  const topology::Link& l = topo.link(lid);
  return !topology::is_host(topo.node(l.src)) &&
         !topology::is_host(topo.node(l.dst));
}

inline void check_allocation(const topology::Topology& topo,
                             std::span<const netsim::Flow* const> flows,
                             SimTime t, LinkScratch& s, Report& r) {
  const auto where = [t](const netsim::Flow& f) {
    std::ostringstream os;
    os << "t=" << t << " flow " << f.id.value() << " rate " << f.rate;
    return os.str();
  };
  s.load.assign(topo.link_count(), 0.0);
  s.max_share.assign(topo.link_count(), 0.0);
  for (const netsim::Flow* f : flows) {
    if (f->finished()) {
      if (f->rate != 0.0) r.fail(where(*f) + ": finished flow has a rate");
      continue;
    }
    if (f->path.empty()) continue;  // loopback: never network-limited
    ++r.flows_checked;
    if (!std::isfinite(f->rate) || f->rate < 0.0) {
      r.fail(where(*f) + ": rate is not finite and >= 0");
      continue;
    }
    if (f->rate_cap &&
        f->rate > *f->rate_cap + kRelTol * std::fabs(*f->rate_cap) + kAbsRate) {
      r.fail(where(*f) + ": exceeds its cap " + std::to_string(*f->rate_cap));
    }
    const double share = f->rate / clamped_weight(*f);
    for (const LinkId lid : f->path) {
      s.load[lid.value()] += f->rate;
      s.max_share[lid.value()] = std::max(s.max_share[lid.value()], share);
    }
  }
  // Feasibility, and which links are saturated.
  s.saturated.assign(topo.link_count(), 0);
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    const LinkId lid{i};
    const double cap = topo.link_up(lid) ? topo.link(lid).capacity : 0.0;
    const double slack = kRelTol * cap + kAbsRate;
    if (s.load[i] > cap + slack) {
      std::ostringstream os;
      os << "t=" << t << " link " << i << " carries " << s.load[i]
         << " over its capacity " << cap;
      r.fail(os.str());
    }
    if (s.load[i] >= cap - slack && s.max_share[i] > 0.0) {
      s.saturated[i] = 1;
      ++r.saturated_links;
      if (is_spine_link(topo, lid)) ++r.saturated_spine_links;
    }
  }
  // Maximality: every flow below its cap has a bottleneck link.
  for (const netsim::Flow* f : flows) {
    if (f->finished() || f->path.empty() || !std::isfinite(f->rate) ||
        f->rate < 0.0) {
      continue;
    }
    if (f->rate_cap && f->rate >= *f->rate_cap -
                                      kRelTol * std::fabs(*f->rate_cap) -
                                      kAbsRate) {
      continue;  // at its demand
    }
    ++r.below_cap;
    const double w = clamped_weight(*f);
    bool bottleneck = false;
    for (const LinkId lid : f->path) {
      const std::size_t i = lid.value();
      if (s.saturated[i] == 0) continue;
      const double top = w * s.max_share[i];  // the top share, in rate units
      if (f->rate >= top - (kRelTol * top + kAbsRate)) {
        bottleneck = true;
        break;
      }
    }
    if (!bottleneck) {
      r.fail(where(*f) +
             ": below its cap with no saturated link where its share is "
             "the largest");
    }
  }
}

}  // namespace detail

// Certifies one allocation (see the header comment). `flows` -- any range of
// Flow pointers -- are the flows the allocator was given, with their rates
// as it left them.
template <typename Flows>
[[nodiscard]] Report certify_allocation(const topology::Topology& topo,
                                        const Flows& flows) {
  const std::vector<const netsim::Flow*> view(std::begin(flows),
                                              std::end(flows));
  Report r;
  detail::LinkScratch s;
  detail::check_allocation(topo, view, 0.0, s, r);
  return r;
}

// Certifies a whole run from its trace stream. Attach with
// sim.set_trace(&cert, obs::TraceDetail::kFlow) after watch(sim), or hand it
// to a ServiceLoop as its kFlow trace sink and call watch(loop.sim()) and
// watch(loop.registry()) before the first step. Without a watched simulator
// only lifecycle events are read (no allocation or byte checks); without a
// watched registry no tardiness is certified.
class Certifier final : public obs::TraceSink {
 public:
  void watch(const netsim::Simulator& sim) noexcept { sim_ = &sim; }
  void watch(const ef::Registry& registry) noexcept { registry_ = &registry; }

  using obs::TraceSink::record;
  void record(const obs::TraceEvent& ev, std::string_view) override {
    ++seq_;
    switch (ev.kind) {
      case obs::TraceKind::kAllocPass:
        on_alloc_pass(ev.t);
        break;
      case obs::TraceKind::kFlowStart:
        note_start(ev.id, ev.t);
        break;
      case obs::TraceKind::kFlowAbandon:
        // A flow abandoned while parked at birth never emitted kFlowStart:
        // the registry saw it start at the abandonment instant.
        note_start(ev.id, ev.t);
        break;
      case obs::TraceKind::kFlowPark:
        ++report_.parks;
        conserve(ev, /*finished=*/false);
        break;
      case obs::TraceKind::kFlowFinish:
        // Every completion emits one, a flow abandoned at birth included.
        ++report_.finishes;
        conserve(ev, /*finished=*/true);
        life(ev.id).finish = ev.t;
        note_group_finish(ev.ctx);
        break;
      case obs::TraceKind::kFaultFired:
        ++report_.faults;
        break;
      case obs::TraceKind::kFlowReroute:
        ++report_.reroutes;
        break;
      default:
        break;
    }
  }

  // Compares every complete EchelonFlow of the watched registry with the
  // t_H rebuilt when its last member finished, and the creation-order sum
  // of those with Registry::total_tardiness(); call after the run.
  void certify_tardiness() {
    if (registry_ == nullptr) {
      report_.fail("tardiness certified with no registry watched");
      return;
    }
    Duration sum = 0.0;
    for (const ef::EchelonFlow* h : registry_->all()) {
      if (!h->complete()) continue;
      ++report_.echelonflows;
      if (h->retired()) ++report_.retired;
      const std::size_t g = h->id().value();
      if (g >= rebuilt_.size() || !rebuilt_[g]) {
        report_.fail("EchelonFlow " + std::to_string(g) +
                     ": complete, but its last member's finish was never "
                     "seen");
        continue;
      }
      const Duration t_h = *rebuilt_[g];
      if (std::fabs(t_h - h->tardiness()) >
          1e-9 * std::max(1.0, std::fabs(t_h))) {
        std::ostringstream os;
        os << "EchelonFlow " << g << ": t_H from events " << t_h
           << " but tardiness() " << h->tardiness();
        report_.fail(os.str());
      }
      sum += t_h;
    }
    const Duration total = registry_->total_tardiness();
    if (std::fabs(sum - total) > 1e-9 * std::max(1.0, std::fabs(sum))) {
      std::ostringstream os;
      os << "sum of rebuilt t_H " << sum << " but total_tardiness() " << total;
      report_.fail(os.str());
    }
  }

  [[nodiscard]] const Report& report() const noexcept { return report_; }

 private:
  // Byte integration state of one flow: delivered up to `since`, at `rate`
  // from then on (the rate of the last pass that saw it active).
  struct Delivery {
    double delivered = 0.0;
    double rate = 0.0;
    SimTime since = 0.0;
    bool unbounded = false;  // an infinite-rate loopback: not integrable
  };
  struct Life {
    SimTime start = kTimeInfinity;
    SimTime finish = kTimeInfinity;
    std::uint64_t start_seq = 0;  // 0 = no start seen
  };

  Delivery& delivery(std::uint64_t id) {
    if (id >= deliveries_.size()) deliveries_.resize(id + 1);
    return deliveries_[id];
  }
  Life& life(std::uint64_t id) {
    if (id >= lives_.size()) lives_.resize(id + 1);
    return lives_[id];
  }
  void note_start(std::uint64_t id, SimTime t) {
    Life& l = life(id);
    if (l.start_seq != 0) return;
    l.start = t;
    l.start_seq = seq_;
  }

  // Counts a finish towards group `ctx`; at its last member's finish,
  // rebuilds t_H (Eq. 2) while the group's members are still bound.
  void note_group_finish(std::uint64_t ctx) {
    const EchelonFlowId gid{ctx};
    if (registry_ == nullptr || !registry_->contains(gid)) return;
    if (ctx >= group_finishes_.size()) {
      group_finishes_.resize(ctx + 1, 0);
      rebuilt_.resize(ctx + 1);
    }
    const ef::EchelonFlow& h = registry_->get(gid);
    if (++group_finishes_[ctx] != h.cardinality()) return;
    if (h.retired()) {
      report_.fail("EchelonFlow " + std::to_string(ctx) +
                   ": retired before its last member finished");
      return;
    }
    // r: the first member to start, minus its own offset.
    const Life* head = nullptr;
    int head_index = 0;
    for (const ef::MemberFlow& m : h.members()) {
      const Life* l = m.sim_flow.valid() && m.sim_flow.value() < lives_.size()
                          ? &lives_[m.sim_flow.value()]
                          : nullptr;
      if (l == nullptr || l->start_seq == 0 || !(l->finish < kTimeInfinity)) {
        report_.fail("EchelonFlow " + std::to_string(ctx) +
                     ": a member has no start or finish event");
        return;
      }
      if (head == nullptr || l->start_seq < head->start_seq) {
        head = l;
        head_index = m.index;
      }
    }
    const SimTime r = head->start - h.arrangement().offset(head_index);
    Duration t_h = -kTimeInfinity;
    for (const ef::MemberFlow& m : h.members()) {
      const SimTime e = lives_[m.sim_flow.value()].finish;
      t_h = std::max(t_h, e - (r + h.arrangement().offset(m.index)));
    }
    rebuilt_[ctx] = t_h;
  }

  static void advance(Delivery& l, SimTime t) {
    if (!l.unbounded && l.rate != 0.0) l.delivered += l.rate * (t - l.since);
    l.since = t;
  }

  void on_alloc_pass(SimTime t) {
    if (sim_ == nullptr) {
      report_.fail("allocation pass with no simulator watched");
      return;
    }
    ++report_.passes;
    active_.clear();
    for (const FlowId id : sim_->active_flows()) {
      const netsim::Flow& f = sim_->flow(id);
      active_.push_back(&f);
      Delivery& l = delivery(id.value());
      advance(l, t);
      l.rate = f.rate;
      if (std::isinf(f.rate)) l.unbounded = true;
    }
    detail::check_allocation(sim_->topology(), active_, t, links_, report_);
  }

  void conserve(const obs::TraceEvent& ev, bool finished) {
    if (sim_ == nullptr) return;
    Delivery& l = delivery(ev.id);
    const double rate = l.rate;
    advance(l, ev.t);
    l.rate = 0.0;  // parked or done: no pass sees it active until resumed
    if (l.unbounded) return;
    ++report_.byte_checks;
    const Bytes size = sim_->flow(FlowId{ev.id}).spec.size;
    const Bytes expected = size - ev.value;
    const double error = std::fabs(l.delivered - expected);
    const double tol = netsim::kBytesEpsilon + 1e-9 * size +
                       rate * kTimeEpsilon * std::max(1.0, std::fabs(ev.t));
    if (size > 0.0) {
      report_.worst_byte_error =
          std::max(report_.worst_byte_error, error / size);
    }
    if (error > tol) {
      std::ostringstream os;
      os.precision(17);
      os << "t=" << ev.t << " flow " << ev.id
         << (finished ? " finished" : " parked") << " having delivered "
         << l.delivered << " B of the " << expected << " B it reports";
      report_.fail(os.str());
    }
  }

  const netsim::Simulator* sim_ = nullptr;
  const ef::Registry* registry_ = nullptr;
  std::uint64_t seq_ = 0;
  std::vector<Delivery> deliveries_;  // by flow id
  std::vector<Life> lives_;           // by flow id
  std::vector<int> group_finishes_;   // by EchelonFlow id
  std::vector<std::optional<Duration>> rebuilt_;  // t_H, by EchelonFlow id
  std::vector<const netsim::Flow*> active_;
  detail::LinkScratch links_;
  Report report_;
};

// ============================================================================
// Cluster-shaped certified runs
// ============================================================================

// Replays a fixed job schedule into a ServiceLoop (each job arrives at its
// JobSpec::arrival).
class ScheduleGenerator final : public service::ArrivalGenerator {
 public:
  explicit ScheduleGenerator(std::vector<cluster::JobSpec> jobs)
      : jobs_(std::move(jobs)) {}

  [[nodiscard]] std::optional<service::Arrival> next() override {
    if (next_ == jobs_.size()) return std::nullopt;
    const cluster::JobSpec& job = jobs_[next_++];
    return service::Arrival{job.arrival, job};
  }
  [[nodiscard]] const char* kind() const noexcept override {
    return "schedule";
  }

 private:
  std::vector<cluster::JobSpec> jobs_;
  std::size_t next_ = 0;
};

struct ServiceRunSpec {
  cluster::SchedulerKind scheduler = cluster::SchedulerKind::kEchelonMadd;
  cluster::FabricKind fabric = cluster::FabricKind::kBigSwitch;
  // Service workers only exist after launch, so plans target links, nodes
  // and jobs (no stragglers), as `serve --chaos` does.
  const faultsim::FaultPlan* plan = nullptr;
};

// The fabric shape of run_experiment and the equivalence harness: 16 hosts
// at 25 Gbps, leaf-spine at 2:1 oversubscription.
[[nodiscard]] inline service::ServiceConfig service_config(
    const ServiceRunSpec& spec) {
  service::ServiceConfig cfg;
  cfg.scheduler = spec.scheduler;
  cfg.fabric = spec.fabric;
  cfg.hosts = 16;
  cfg.port_capacity = gbps(25);
  cfg.oversubscription =
      spec.fabric == cluster::FabricKind::kLeafSpine ? 2.0 : 1.0;
  cfg.fault_plan = spec.plan;
  return cfg;
}

// Runs `jobs` through a ServiceLoop with the certifier attached and returns
// the allocation, byte and tardiness report. Every job must complete.
[[nodiscard]] inline Report certified_service_run(
    const std::vector<cluster::JobSpec>& jobs, const ServiceRunSpec& spec) {
  Certifier cert;
  service::ServiceConfig cfg = service_config(spec);
  cfg.trace_sink = &cert;
  cfg.trace_detail = obs::TraceDetail::kFlow;
  service::ServiceLoop loop(cfg);
  cert.watch(loop.sim());
  cert.watch(loop.registry());
  loop.set_generator(std::make_unique<ScheduleGenerator>(jobs));
  loop.drain();
  cert.certify_tardiness();
  Report r = cert.report();
  const service::ServiceResult res = loop.result();
  if (res.completed != jobs.size()) {
    r.fail(std::to_string(res.completed) + " of " +
           std::to_string(jobs.size()) + " jobs completed");
  }
  return r;
}

}  // namespace echelon::certify
