// The certifier (tests/certify.hpp) must bite: each check is fed a result
// that breaks exactly its definition and must flag it, and the untouched
// result must pass.
//
//   1. certify_allocation: an allocator-produced allocation passes; one
//      uncapped flow scaled by 0.9 fails maximality; scaled by 1.1 (and the
//      whole allocation scaled by 1.1) fails feasibility; a rate above its
//      cap fails the cap check.
//   2. Byte conservation: a synthetic event stream whose kFlowFinish comes
//      ten retire thresholds early (or late) fails; the exact instant
//      passes.
//   3. Tardiness: a run's own start/finish events rebuild every complete
//      EchelonFlow's t_H; replaying them with the finishes shifted fails,
//      and so does a complete group whose finishes were never seen. A
//      certified service run retires its finished jobs' groups and still
//      certifies each of them, and a shifted replay of it fails too.
//   4. Dependency order: one job of every paradigm, run together through a
//      cluster::Stack under every scheduler, starts no flow or task before
//      its workflow predecessors finish; a replay that drops one kFlowFinish
//      and re-records it after everything else fails.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "certify.hpp"
#include "cluster/stack.hpp"
#include "cluster/trace.hpp"
#include "echelon/arrangement.hpp"
#include "echelon/registry.hpp"
#include "netsim/allocator.hpp"
#include "netsim/simulator.hpp"
#include "netsim/workflow.hpp"
#include "obs/trace.hpp"
#include "service/arrivals.hpp"
#include "service/service.hpp"
#include "topology/builders.hpp"
#include "topology/route_table.hpp"

namespace echelon {
namespace {

using netsim::Flow;

[[nodiscard]] bool mentions(const certify::Report& r, const std::string& what) {
  for (const std::string& v : r.violations) {
    if (v.find(what) != std::string::npos) return true;
  }
  return false;
}

// Forwards every event to two sinks.
struct Tee final : obs::TraceSink {
  obs::TraceSink* a;
  obs::TraceSink* b;
  Tee(obs::TraceSink* x, obs::TraceSink* y) : a(x), b(y) {}
  void record(const obs::TraceEvent& ev, std::string_view label) override {
    a->record(ev, label);
    b->record(ev, label);
  }
};

// ============================================================================
// 1. certify_allocation
// ============================================================================

// Four hosts on a 10 Gbps big switch. Hosts 0 and 3 each send to hosts 1
// and 2, so every uplink and downlink is shared and the weighted max-min
// fill runs several rounds; one flow is capped.
class AllocationFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    struct Shape {
      std::size_t src, dst;
      double weight;
      std::optional<double> cap;
    };
    const Shape shapes[] = {{0, 1, 1.0, std::nullopt},
                            {0, 1, 2.0, std::nullopt},
                            {0, 2, 1.0, 2e8},
                            {3, 1, 1.0, std::nullopt},
                            {3, 2, 1.0, std::nullopt}};
    std::uint64_t id = 0;
    for (const Shape& sh : shapes) {
      Flow f;
      f.id = FlowId{id};
      f.spec.src = fabric_.hosts[sh.src];
      f.spec.dst = fabric_.hosts[sh.dst];
      f.spec.size = 1e9;
      f.remaining = f.spec.size;
      const auto rid = table_.route(f.spec.src, f.spec.dst, id);
      ASSERT_TRUE(rid.has_value());
      f.route = *rid;
      f.path = table_.path(*rid);
      f.weight = sh.weight;
      f.rate_cap = sh.cap;
      flows_.push_back(std::move(f));
      ++id;
    }
    for (Flow& f : flows_) ptrs_.push_back(&f);
    netsim::RateAllocator alloc(&fabric_.topo);
    alloc.allocate(ptrs_);
  }

  [[nodiscard]] certify::Report certify() const {
    return certify::certify_allocation(fabric_.topo, ptrs_);
  }

  topology::BuiltFabric fabric_ = topology::make_big_switch(4, gbps(10));
  topology::RouteTable table_{&fabric_.topo};
  std::vector<Flow> flows_;
  std::vector<Flow*> ptrs_;
};

TEST_F(AllocationFixture, AllocatorOutputPasses) {
  const certify::Report r = certify();
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.flows_checked, flows_.size());
  EXPECT_EQ(r.below_cap, flows_.size() - 1);
  EXPECT_GT(r.saturated_links, 0u);
}

TEST_F(AllocationFixture, UncappedFlowScaledDownFailsMaximality) {
  flows_[1].rate *= 0.9;
  const certify::Report r = certify();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "below its cap with no saturated link"))
      << r.summary();
}

TEST_F(AllocationFixture, UncappedFlowScaledUpFailsFeasibility) {
  flows_[1].rate *= 1.1;
  const certify::Report r = certify();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "over its capacity")) << r.summary();
}

TEST_F(AllocationFixture, WholeAllocationScaledUpFailsFeasibility) {
  for (Flow& f : flows_) f.rate *= 1.1;
  const certify::Report r = certify();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "over its capacity")) << r.summary();
  EXPECT_TRUE(mentions(r, "exceeds its cap")) << r.summary();
}

TEST_F(AllocationFixture, DownLinkCarriesNothing) {
  // Taking a loaded link down without rerouting leaves an infeasible
  // allocation: a down link's capacity is zero.
  fabric_.topo.set_link_up(flows_[0].path[0], false);
  const certify::Report r = certify();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "over its capacity")) << r.summary();
}

// ============================================================================
// 2. Byte conservation on a synthetic event stream
// ============================================================================

// One 1 GB flow on a 10 Gbps link: rate 1.25e9 B/s, finishing at 0.8 s.
// The simulator has run its first allocation pass; the certifier is fed a
// hand-written stream around it.
class BytesFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    netsim::FlowSpec spec;
    spec.src = fabric_.hosts[0];
    spec.dst = fabric_.hosts[1];
    spec.size = 1e9;
    id_ = sim_.submit_flow(std::move(spec));
    sim_.run(0.0);  // one allocation pass at t = 0, no progress
    ASSERT_EQ(sim_.flow(id_).rate, gbps(10));
  }

  [[nodiscard]] certify::Report finish_at(SimTime t) {
    certify::Certifier cert;
    cert.watch(sim_);
    cert.record({.kind = obs::TraceKind::kFlowStart, .t = 0.0,
                 .id = id_.value(), .value = 1e9});
    cert.record({.kind = obs::TraceKind::kAllocPass, .t = 0.0});
    cert.record({.kind = obs::TraceKind::kFlowFinish, .t = t,
                 .id = id_.value(), .value = 0.0});
    return cert.report();
  }

  // The simulator's retire threshold at `t`.
  [[nodiscard]] static double threshold(SimTime t) {
    return kTimeEpsilon * std::max(1.0, t);
  }

  topology::BuiltFabric fabric_ = topology::make_big_switch(2, gbps(10));
  netsim::Simulator sim_{&fabric_.topo};
  FlowId id_;
};

TEST_F(BytesFixture, ExactFinishPasses) {
  const SimTime done = 1e9 / gbps(10);
  const certify::Report r = finish_at(done);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.passes, 1u);
  EXPECT_EQ(r.byte_checks, 1u);
}

TEST_F(BytesFixture, FinishTenThresholdsEarlyFailsConservation) {
  const SimTime done = 1e9 / gbps(10);
  const certify::Report r = finish_at(done - 10 * threshold(done));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "finished having delivered")) << r.summary();
}

TEST_F(BytesFixture, FinishTenThresholdsLateFailsConservation) {
  const SimTime done = 1e9 / gbps(10);
  const certify::Report r = finish_at(done + 10 * threshold(done));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "finished having delivered")) << r.summary();
}

// ============================================================================
// 3. Tardiness rebuilt from raw events
// ============================================================================

// Two pipeline-staggered EchelonFlows of three members each share one
// bottleneck, so members finish late and t_H is positive.
TEST(CertifyTardiness, RebuildMatchesAndAShiftedFinishFails) {
  auto fabric = topology::make_big_switch(4, gbps(10));
  netsim::Simulator sim(&fabric.topo);
  ef::Registry registry;
  registry.attach(sim);
  obs::TraceRecorder recorder(1u << 12);
  certify::Certifier cert;
  cert.watch(sim);
  cert.watch(registry);

  // Tee: the certifier sees the run; the recorder keeps it for the replay.
  Tee tee(&cert, &recorder);
  sim.set_trace(&tee, obs::TraceDetail::kFlow);

  for (int g = 0; g < 2; ++g) {
    const EchelonFlowId group = registry.create(
        JobId{static_cast<std::uint64_t>(g)},
        ef::Arrangement::from_offsets({0.0, 0.1, 0.2}));
    for (int j = 0; j < 3; ++j) {
      sim.schedule_at(0.05 * j, [&fabric, group, j, g](netsim::Simulator& s) {
        netsim::FlowSpec spec;
        spec.src = fabric.hosts[static_cast<std::size_t>(g)];
        spec.dst = fabric.hosts[3];
        spec.size = 2e8 * (j + 1);
        spec.group = group;
        spec.index_in_group = j;
        s.submit_flow(std::move(spec));
      });
    }
  }
  sim.run();

  cert.certify_tardiness();
  const certify::Report& r = cert.report();
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.echelonflows, 2u);
  EXPECT_EQ(r.finishes, 6u);
  EXPECT_GT(registry.total_tardiness(), 0.0);

  // Replay only the lifecycle events into fresh certifiers (no simulator
  // watched, so bytes are not re-checked): verbatim passes; every finish
  // moved 1 ms later raises each t_H by 1 ms and fails.
  const auto replay = [&](bool shift) {
    certify::Certifier c;
    c.watch_unsubscribed(registry);
    for (obs::TraceEvent ev : recorder.events()) {
      if (ev.kind != obs::TraceKind::kFlowStart &&
          ev.kind != obs::TraceKind::kFlowFinish) {
        continue;
      }
      if (shift && ev.kind == obs::TraceKind::kFlowFinish) ev.t += 1e-3;
      c.record(ev);
    }
    c.certify_tardiness();
    return c.report();
  };
  const certify::Report verbatim = replay(false);
  EXPECT_TRUE(verbatim.ok()) << verbatim.summary();
  EXPECT_EQ(verbatim.echelonflows, 2u);
  const certify::Report shifted = replay(true);
  EXPECT_FALSE(shifted.ok());
  EXPECT_TRUE(mentions(shifted, "t_H from events")) << shifted.summary();

  // A certifier that saw no finishes has certified no group.
  certify::Certifier blind;
  blind.watch_unsubscribed(registry);
  blind.certify_tardiness();
  EXPECT_FALSE(blind.report().ok());
  EXPECT_TRUE(mentions(blind.report(), "never seen"))
      << blind.report().summary();
}

// A service retires a finished job's groups once its run returns, freeing
// their members, and the registry then releases them; the certifier rebuilt
// each t_H while they were live and checks it as each is released. A
// second, lifecycle-only certifier fed every finish 1 ms late (no simulator
// watched, so it checks no bytes) must fail on the same groups, and a full
// third one that misses one release notification must fail too.
TEST(CertifyTardiness, RetiredServiceGroupsAreCertifiedLive) {
  cluster::TraceConfig tcfg;
  tcfg.num_jobs = 6;
  tcfg.seed = 17;
  tcfg.arrival_rate = 3.0;
  tcfg.rank_choices = {2, 4};
  const std::vector<cluster::JobSpec> jobs = cluster::generate_trace(tcfg);
  certify::Certifier cert;
  certify::Certifier shifted;
  struct Shift final : obs::TraceSink {
    certify::Certifier* c;
    explicit Shift(certify::Certifier* x) : c(x) {}
    void record(const obs::TraceEvent& ev, std::string_view label) override {
      obs::TraceEvent e = ev;
      if (e.kind == obs::TraceKind::kFlowFinish) {
        e.t += 1e-3;
      } else if (e.kind != obs::TraceKind::kFlowStart &&
                 e.kind != obs::TraceKind::kFlowAbandon) {
        return;
      }
      c->record(e, label);
    }
  } shift(&shifted);
  certify::Certifier dropping;
  Tee lifecycle(&shift, &dropping);
  Tee tee(&cert, &lifecycle);

  service::ServiceConfig cfg;  // 16 hosts at 25 Gbps on a big switch
  cfg.trace_sink = &tee;
  cfg.trace_detail = obs::TraceDetail::kFlow;
  service::ServiceLoop loop(cfg);
  cert.watch(loop.sim());
  cert.watch(loop.registry());
  shifted.watch(loop.registry());
  constexpr std::uint64_t kDropped = 3;
  dropping.watch(loop.sim());
  dropping.watch_unsubscribed(loop.registry());
  loop.registry().add_release_listener([&dropping](const ef::EchelonFlow& h) {
    if (h.id() != EchelonFlowId{kDropped}) dropping.note_release(h);
  });
  loop.set_generator(
      std::make_unique<service::ScheduleArrivalGenerator>(jobs));
  loop.drain();
  ASSERT_EQ(loop.completed(), jobs.size());

  cert.certify_tardiness();
  const certify::Report& r = cert.report();
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.echelonflows, loop.registry().size());
  EXPECT_GT(r.retired, 0u);
  EXPECT_EQ(r.retired, r.echelonflows);  // every job finished
  // Every job finished, so every group was released and checked then.
  EXPECT_EQ(loop.registry().released(), loop.registry().size());
  EXPECT_TRUE(loop.registry().all().empty());

  shifted.certify_tardiness();
  EXPECT_FALSE(shifted.report().ok());
  EXPECT_TRUE(mentions(shifted.report(), "t_H from events"))
      << shifted.report().summary();

  dropping.certify_tardiness();
  const certify::Report& d = dropping.report();
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(mentions(d, "EchelonFlow " + std::to_string(kDropped + 1) +
                              " released, but EchelonFlow " +
                              std::to_string(kDropped) + " was next"))
      << d.summary();
  EXPECT_TRUE(mentions(d, "release notifications")) << d.summary();
  EXPECT_FALSE(mentions(d, "t_H from events")) << d.summary();
}

// ============================================================================
// 4. Dependency order
// ============================================================================

// One small job per paradigm, launched together on one Stack.
std::vector<cluster::JobSpec> one_job_per_paradigm() {
  std::vector<cluster::JobSpec> jobs;
  for (int p = 0; p < 6; ++p) {
    cluster::TraceConfig tcfg;
    tcfg.num_jobs = 1;
    tcfg.seed = 23;
    tcfg.paradigm_weights = {0, 0, 0, 0, 0, 0};
    tcfg.paradigm_weights[static_cast<std::size_t>(p)] = 1.0;
    tcfg.rank_choices = {4};
    tcfg.min_layers = 4;
    tcfg.max_layers = 4;
    tcfg.iterations = 2;
    jobs.push_back(cluster::generate_trace(tcfg).front());
    jobs.back().arrival = 0.01 * p;
  }
  return jobs;
}

TEST(CertifyDependencyOrder, EveryParadigmUnderEverySchedulerPasses) {
  const std::vector<cluster::JobSpec> jobs = one_job_per_paradigm();
  for (int k = 0; k <= static_cast<int>(cluster::SchedulerKind::kAalo); ++k) {
    const auto kind = static_cast<cluster::SchedulerKind>(k);
    SCOPED_TRACE(cluster::to_string(kind));
    cluster::Stack stack(kind, cluster::FabricKind::kLeafSpine, 16, gbps(25),
                         2.0);
    certify::Certifier cert;
    cert.watch(stack.sim());
    stack.observe(&cert, obs::TraceDetail::kFlow, nullptr);
    std::vector<cluster::BuiltJob> built(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      stack.build(built[j], jobs[j], stack.place(jobs[j]), JobId{j}, {});
      built[j].engine->launch(jobs[j].arrival);
    }
    stack.sim().run();
    std::uint64_t edges = 0;
    for (const cluster::BuiltJob& job : built) {
      ASSERT_TRUE(job.engine->finished());
      cert.certify_dependency_order(job.generated.workflow, *job.engine);
      edges += job.generated.workflow.edges().size();
    }
    const certify::Report& r = cert.report();
    EXPECT_TRUE(r.ok()) << r.summary();
    EXPECT_GT(r.dependencies, 0u);
    EXPECT_LE(r.dependencies, edges);  // edges into barriers are folded
  }
}

// A flow whose finish event arrives after every other event looks, to the
// certifier, like one whose successors were released while it still ran.
TEST(CertifyDependencyOrder, LateFinishEventFails) {
  const std::vector<cluster::JobSpec> jobs = {one_job_per_paradigm().front()};
  cluster::Stack stack(cluster::SchedulerKind::kEchelonMadd,
                       cluster::FabricKind::kBigSwitch, 8, gbps(25), 1.0);
  certify::Certifier cert;
  cert.watch(stack.sim());
  struct HoldOneFinish final : obs::TraceSink {
    certify::Certifier* c;
    std::optional<std::pair<obs::TraceEvent, std::string>> held;
    explicit HoldOneFinish(certify::Certifier* x) : c(x) {}
    void record(const obs::TraceEvent& ev, std::string_view label) override {
      if (!held && ev.kind == obs::TraceKind::kFlowFinish) {
        held.emplace(ev, std::string(label));
        return;
      }
      c->record(ev, label);
    }
  } hold(&cert);
  stack.observe(&hold, obs::TraceDetail::kFlow, nullptr);
  cluster::BuiltJob job;
  stack.build(job, jobs[0], stack.place(jobs[0]), JobId{0}, {});
  job.engine->launch(0.0);
  stack.sim().run();
  ASSERT_TRUE(job.engine->finished());
  ASSERT_TRUE(hold.held.has_value());
  cert.record(hold.held->first, hold.held->second);
  cert.certify_dependency_order(job.generated.workflow, *job.engine);
  EXPECT_FALSE(cert.report().ok());
  EXPECT_TRUE(mentions(cert.report(), "started before its predecessor"))
      << cert.report().summary();
}

}  // namespace
}  // namespace echelon
