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
//       - as the registry releases a group (its release listener), compare
//         the rebuilt t_H to EchelonFlow::tardiness(); releases must come
//         once each, in creation order;
//       - after the run, certify_tardiness() does the same for every
//         complete group still held, checks that every release was seen,
//         and compares the creation-order sum of the rebuilt t_H to
//         Registry::total_tardiness(). A complete group that was never
//         rebuilt fails.
//       - after the run, certify_dependency_order(wf, engine) checks a
//         job's workflow: every flow is submitted (kFlowSubmit) and every
//         task starts (kTaskStart) after each predecessor on
//         Workflow::edges() finished (kFlowFinish / kTaskFinish), in
//         event order. A barrier finishes with its last predecessor. The
//         engine names each flow node's FlowId; a task is found by its job
//         and label.
//     Byte conservation is the independent oracle for the lazy event loop:
//     a flow retired early or late shows up as missing or extra bytes.
//   * certified_service_run(jobs, spec) -- the ServiceLoop run that
//     run_experiment makes (which keeps its Simulator private), with the
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
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
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
#include "netsim/workflow.hpp"
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
  std::uint64_t dependencies = 0;    // workflow edges checked
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
    dependencies += o.dependencies;
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
       << " EchelonFlows (" << retired << " retired), " << dependencies
       << " dependencies; " << violation_count
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
  // Certifies tardiness against `registry`, subscribing note_release() as
  // its release listener. The certifier must outlive the registry's
  // releases.
  void watch(ef::Registry& registry) {
    watch_unsubscribed(registry);
    registry.add_release_listener(
        [this](const ef::EchelonFlow& h) { note_release(h); });
  }
  // The same without the subscription: releases reach the certifier only
  // through the caller's own note_release() calls.
  void watch_unsubscribed(const ef::Registry& registry) noexcept {
    registry_ = &registry;
  }

  // Certifies EchelonFlow `h` as the registry releases it: the next id in
  // creation order, with the t_H rebuilt from events.
  void note_release(const ef::EchelonFlow& h) {
    ++releases_seen_;
    const std::uint64_t g = h.id().value();
    if (g != next_release_) {
      report_.fail("EchelonFlow " + std::to_string(g) +
                   " released, but EchelonFlow " +
                   std::to_string(next_release_) + " was next");
    }
    next_release_ = g + 1;
    released_sum_ += certify_group(h);
  }

  using obs::TraceSink::record;
  void record(const obs::TraceEvent& ev, std::string_view label) override {
    ++seq_;
    switch (ev.kind) {
      case obs::TraceKind::kAllocPass:
        on_alloc_pass(ev.t);
        break;
      case obs::TraceKind::kFlowSubmit:
        if (life(ev.id).submit_seq == 0) life(ev.id).submit_seq = seq_;
        break;
      case obs::TraceKind::kFlowStart:
        note_start(ev.id, ev.t);
        break;
      case obs::TraceKind::kTaskStart:
        task(ev.id).start_seq = seq_;
        // A second task of one job under one label makes both ambiguous.
        if (!task_by_label_.try_emplace({ev.job, std::string(label)}, ev.id)
                 .second) {
          task_by_label_[{ev.job, std::string(label)}] = kAmbiguous;
        }
        break;
      case obs::TraceKind::kTaskFinish:
        task(ev.id).finish_seq = seq_;
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
        life(ev.id).finish_seq = seq_;
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

  // Compares every complete EchelonFlow the watched registry still holds
  // with the t_H rebuilt when its last member finished, checks that every
  // release was certified, and compares the creation-order sum of the
  // rebuilt t_H, released groups first, with Registry::total_tardiness();
  // call after the run.
  void certify_tardiness() {
    if (registry_ == nullptr) {
      report_.fail("tardiness certified with no registry watched");
      return;
    }
    if (releases_seen_ != registry_->released()) {
      report_.fail(std::to_string(registry_->released()) +
                   " EchelonFlows released, but " +
                   std::to_string(releases_seen_) + " release notifications");
    }
    Duration sum = released_sum_;
    for (const ef::EchelonFlow* h : registry_->all()) {
      if (h->complete()) sum += certify_group(*h);
    }
    const Duration total = registry_->total_tardiness();
    if (std::fabs(sum - total) > 1e-9 * std::max(1.0, std::fabs(sum))) {
      std::ostringstream os;
      os << "sum of rebuilt t_H " << sum << " but total_tardiness() " << total;
      report_.fail(os.str());
    }
  }

  // Checks `wf`'s dependency order (see the header comment) from the events
  // of the run `engine` drove; call after the run.
  void certify_dependency_order(const netsim::Workflow& wf,
                                const netsim::WorkflowEngine& engine) {
    const std::size_t n = wf.size();
    const auto name = [&wf](netsim::WfNodeId id) {
      return "node " + std::to_string(id) + " '" + std::string(wf.label(id)) +
             "'";
    };
    // Event sequence numbers of each node's start and finish.
    std::vector<std::uint64_t> start(n, 0);
    std::vector<std::uint64_t> finish(n, 0);
    for (netsim::WfNodeId id = 0; id < n; ++id) {
      const netsim::WfKind kind = wf.node(id).kind;
      if (kind == netsim::WfKind::kFlow) {
        const FlowId fid = engine.flow_of(id);
        if (fid.valid() && fid.value() < lives_.size()) {
          start[id] = lives_[fid.value()].submit_seq;
          finish[id] = lives_[fid.value()].finish_seq;
        }
      } else if (kind == netsim::WfKind::kCompute) {
        const auto it =
            task_by_label_.find({wf.job().value(), std::string(wf.label(id))});
        if (it != task_by_label_.end() && it->second == kAmbiguous) {
          report_.fail(name(id) + ": more than one task of its job has its "
                       "label");
          continue;
        }
        if (it != task_by_label_.end()) {
          start[id] = tasks_[it->second].start_seq;
          finish[id] = tasks_[it->second].finish_seq;
        }
      } else {
        continue;  // a barrier: finishes with its last predecessor, below
      }
      if (start[id] == 0 || finish[id] == 0) {
        report_.fail(name(id) + ": no start or finish event");
      }
    }
    // Walk the edges in Kahn order, so a barrier's finish is final before
    // its own out-edges are read.
    std::vector<std::vector<std::uint32_t>> succs(n);
    std::vector<std::uint32_t> waiting(n, 0);
    for (const netsim::WfEdge& e : wf.edges()) {
      succs[e.pre].push_back(e.succ);
      ++waiting[e.succ];
    }
    std::vector<std::uint32_t> ready;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (waiting[i] == 0) ready.push_back(i);
    }
    while (!ready.empty()) {
      const std::uint32_t pre = ready.back();
      ready.pop_back();
      for (const std::uint32_t succ : succs[pre]) {
        if (wf.node(succ).kind == netsim::WfKind::kBarrier) {
          finish[succ] = std::max(finish[succ], finish[pre]);
        } else {
          ++report_.dependencies;
          if (start[succ] != 0 && start[succ] < finish[pre]) {
            report_.fail(name(succ) + " started before its predecessor " +
                         name(pre) + " finished");
          }
        }
        if (--waiting[succ] == 0) ready.push_back(succ);
      }
    }
  }

  [[nodiscard]] const Report& report() const noexcept { return report_; }

 private:
  static constexpr std::uint64_t kAmbiguous = ~0ULL;

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
    std::uint64_t submit_seq = 0;  // 0 = no submit seen
    std::uint64_t finish_seq = 0;  // 0 = no finish seen
  };
  struct TaskLife {
    std::uint64_t start_seq = 0;   // 0 = no start seen
    std::uint64_t finish_seq = 0;  // 0 = no finish seen
  };

  Delivery& delivery(std::uint64_t id) {
    if (id >= deliveries_.size()) deliveries_.resize(id + 1);
    return deliveries_[id];
  }
  Life& life(std::uint64_t id) {
    if (id >= lives_.size()) lives_.resize(id + 1);
    return lives_[id];
  }
  TaskLife& task(std::uint64_t id) {
    if (id >= tasks_.size()) tasks_.resize(id + 1);
    return tasks_[id];
  }
  void note_start(std::uint64_t id, SimTime t) {
    Life& l = life(id);
    if (l.start_seq != 0) return;
    l.start = t;
    l.start_seq = seq_;
  }

  // Compares complete group `h` with its rebuilt t_H; returns that t_H (0
  // when none was rebuilt).
  Duration certify_group(const ef::EchelonFlow& h) {
    ++report_.echelonflows;
    if (h.retired()) ++report_.retired;
    const std::size_t g = h.id().value();
    if (g >= rebuilt_.size() || !rebuilt_[g]) {
      report_.fail("EchelonFlow " + std::to_string(g) +
                   ": complete, but its last member's finish was never seen");
      return 0.0;
    }
    const Duration t_h = *rebuilt_[g];
    if (std::fabs(t_h - h.tardiness()) > 1e-9 * std::max(1.0, std::fabs(t_h))) {
      std::ostringstream os;
      os << "EchelonFlow " << g << ": t_H from events " << t_h
         << " but tardiness() " << h.tardiness();
      report_.fail(os.str());
    }
    return t_h;
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
    const ef::Arrangement arrangement = h.arrangement();
    const SimTime r = head->start - arrangement.offset(head_index);
    Duration t_h = -kTimeInfinity;
    for (const ef::MemberFlow& m : h.members()) {
      const SimTime e = lives_[m.sim_flow.value()].finish;
      t_h = std::max(t_h, e - (r + arrangement.offset(m.index)));
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
  std::vector<TaskLife> tasks_;       // by task id
  // (job, label) -> task id, kAmbiguous when a label repeats in a job.
  std::map<std::pair<std::uint64_t, std::string>, std::uint64_t>
      task_by_label_;
  std::vector<int> group_finishes_;   // by EchelonFlow id
  std::vector<std::optional<Duration>> rebuilt_;  // t_H, by EchelonFlow id
  std::uint64_t releases_seen_ = 0;  // note_release() calls
  std::uint64_t next_release_ = 0;   // the id the next release should name
  Duration released_sum_ = 0.0;      // rebuilt t_H of released groups
  std::vector<const netsim::Flow*> active_;
  detail::LinkScratch links_;
  Report report_;
};

// ============================================================================
// Cluster-shaped certified runs
// ============================================================================

struct ServiceRunSpec {
  cluster::SchedulerKind scheduler = cluster::SchedulerKind::kEchelonMadd;
  cluster::FabricKind fabric = cluster::FabricKind::kBigSwitch;
  // Every job is seated before the run, so plans may target workers too.
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

// Runs `jobs` (arrivals sorted by index) with the certifier attached, as
// run_experiment runs them: a ServiceLoop fed each job at its arrival, with
// every job seated ahead. Returns the allocation, byte and tardiness
// report. Every job must complete.
[[nodiscard]] inline Report certified_service_run(
    const std::vector<cluster::JobSpec>& jobs, const ServiceRunSpec& spec) {
  Certifier cert;
  service::ServiceConfig cfg = service_config(spec);
  cfg.trace_sink = &cert;
  cfg.trace_detail = obs::TraceDetail::kFlow;
  service::ServiceLoop loop(cfg);
  cert.watch(loop.sim());
  cert.watch(loop.registry());
  loop.seat_ahead(jobs);
  loop.set_generator(
      std::make_unique<service::ScheduleArrivalGenerator>(jobs));
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
