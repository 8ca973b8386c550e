// Tests for the deterministic fault-injection subsystem (DESIGN.md §8):
//
//   1. FaultPlan determinism & round-trip: from_chaos is a pure function of
//      (profile, deployment shape) -- byte-identical serialization across
//      calls -- and serialize/parse round-trips exactly. The parser reads
//      whole tokens, and a truncation / bit-flip fuzz shows every corrupt
//      plan either throws or parses to a self-consistent plan.
//   2. Injector micro-semantics on a leaf-spine fabric with known link ids:
//      reroute when an alternate spine survives, park -> bounded retry ->
//      abandon when no path exists, resume on recovery, brownout slowdown,
//      job abort/restart.
//   3. Property tests: arming an *empty* plan is byte-identical to running
//      with no injector at all, for every scheduler x fabric; a uniform
//      (all-links) brownout under work-conserving fair sharing makes the
//      makespan monotonically worse as capacity shrinks. (A *targeted*
//      brownout is deliberately not asserted monotone: slowing one link can
//      reshape SRPT/MADD priorities and finish a trace earlier -- see
//      DESIGN.md §8, "monotonicity caveat".)
//   4. Chaos certification fuzz: >= 200 seeded plan-runs (ECHELON_CHAOS_SEEDS
//      x 5 schedulers; reduced under sanitizers) certify every allocation
//      pass, every parked and finished flow's bytes and every EchelonFlow's
//      tardiness *under fire* (tests/certify.hpp), and that the sweep is
//      non-vacuous (faults actually fired, flows actually rerouted/parked).
//   5. Event-order regression for the latent tie-break bug: callbacks
//      scheduled at identical timestamps fire in submission order, including
//      epsilon-equal-but-bitwise-distinct timestamps and callbacks that
//      schedule more work at the same instant.

#include "equivalence_harness.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "faultsim/injector.hpp"
#include "obs/stream.hpp"

namespace echelon {
namespace {

using cluster::FabricKind;
using cluster::SchedulerKind;
using eqh::expect_same_result;
using eqh::run_cluster;
using eqh::RunSpec;
using eqh::small_trace;
using faultsim::ChaosProfile;
using faultsim::FaultInjector;
using faultsim::FaultKind;
using faultsim::FaultPlan;
using netsim::FlowSpec;
using netsim::Simulator;

// ============================================================================
// 1. Plan determinism & text round-trip
// ============================================================================

FaultPlan chaos_plan(std::uint64_t seed, const topology::Topology& topo) {
  ChaosProfile p;
  p.seed = seed;
  p.horizon = 1.5;
  p.link_faults = 3;
  p.brownouts = 2;
  p.stragglers = 2;
  p.node_faults = 1;
  p.job_aborts = 1;
  return faultsim::from_chaos(p, topo, /*worker_count=*/24, /*job_count=*/6);
}

TEST(FaultPlanDeterminism, FromChaosIsAPureFunctionOfSeed) {
  const auto fabric = eqh::run_cluster_fabric(FabricKind::kLeafSpine);
  const auto a = chaos_plan(7, fabric.topo);
  const auto b = chaos_plan(7, fabric.topo);
  EXPECT_EQ(faultsim::serialize(a), faultsim::serialize(b));
  // Every window recovers: down/up style kinds come in equal counts.
  std::size_t downs = 0;
  std::size_t ups = 0;
  for (const auto& ev : a.events) {
    switch (ev.kind) {
      case FaultKind::kLinkDown:
      case FaultKind::kBrownout:
      case FaultKind::kStraggler:
      case FaultKind::kNodeDown:
      case FaultKind::kJobAbort:
        ++downs;
        break;
      default:
        ++ups;
    }
  }
  EXPECT_EQ(downs, ups);
  EXPECT_EQ(downs, 9u);  // 3 + 2 + 2 + 1 + 1
  // A different seed draws a different script.
  EXPECT_NE(faultsim::serialize(a), faultsim::serialize(chaos_plan(8, fabric.topo)));
}

void expect_same_plan(const FaultPlan& a, const FaultPlan& b) {
  EXPECT_EQ(a.max_retries, b.max_retries);
  EXPECT_EQ(a.retry_backoff, b.retry_backoff);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(a.events[i].at, b.events[i].at);  // precision(17): exact
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].target, b.events[i].target);
    EXPECT_EQ(a.events[i].factor, b.events[i].factor);
  }
}

// A horizon that is not a finite positive number would draw fault windows
// in the past or ending before they start; the generator refuses it.
TEST(FaultPlanDeterminism, FromChaosRejectsBadHorizon) {
  const auto fabric = eqh::run_cluster_fabric(FabricKind::kBigSwitch);
  ChaosProfile p;
  p.link_faults = 1;
  for (const double horizon : {0.0, -1.0, std::nan(""), kTimeInfinity}) {
    p.horizon = horizon;
    EXPECT_THROW((void)faultsim::from_chaos(p, fabric.topo, 0, 1),
                 std::invalid_argument)
        << "horizon " << horizon;
  }
  p.horizon = 1e-3;
  EXPECT_FALSE(faultsim::from_chaos(p, fabric.topo, 0, 1).empty());
}

TEST(FaultPlanDeterminism, SerializeParseRoundTripIsExact) {
  const auto fabric = eqh::run_cluster_fabric(FabricKind::kLeafSpine);
  auto plan = chaos_plan(42, fabric.topo);
  plan.max_retries = 5;
  plan.retry_backoff = 0.075;
  const std::string text = faultsim::serialize(plan);
  const FaultPlan parsed = faultsim::parse_fault_plan(text);
  expect_same_plan(parsed, plan);
  // Idempotent: re-serialization is byte-identical.
  EXPECT_EQ(faultsim::serialize(parsed), text);
}

TEST(FaultPlanDeterminism, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)faultsim::parse_fault_plan("0.1 not-a-kind 3"),
               std::invalid_argument);
  EXPECT_THROW((void)faultsim::parse_fault_plan("nonsense"),
               std::invalid_argument);
  EXPECT_THROW((void)faultsim::parse_fault_plan("0.1 link-down"),
               std::invalid_argument);
  // Comments and blank lines are fine.
  const auto ok = faultsim::parse_fault_plan(
      "# a comment\n\nretries 2\nbackoff 0.01\n0.5 link-down 3\n0.6 link-up 3\n");
  EXPECT_EQ(ok.max_retries, 2);
  ASSERT_EQ(ok.events.size(), 2u);
  EXPECT_EQ(ok.events[1].kind, FaultKind::kLinkUp);
}

// Each line below used to parse: std::stod / std::stoull / istream >> stop
// at the first non-numeric character, stoull wraps a negative target, nan
// and inf are valid doubles, and nothing checked for tokens after the last
// field. Each must now fail with the line-numbered error.
TEST(FaultPlanDeterminism, ParseRejectsPartialTokens) {
  for (const std::string bad : {
           "0.1x link-down 3",         // time with trailing junk
           "0.1 link-down 3abc",       // target with trailing junk
           "0.1 link-down -1",         // negative target
           "0.1 link-down 3 extra",    // token after the last field
           "0.2 brownout 3 0.5 0.7",   // token after the factor
           "nan link-down 3",          // non-finite time
           "inf link-down 3",
           "retries 2x",               // count with trailing junk
           "retries 2 3",
           "backoff 0.01s",            // duration with trailing junk
       }) {
    SCOPED_TRACE(bad);
    try {
      (void)faultsim::parse_fault_plan("retries 1\n" + bad + "\n");
      ADD_FAILURE() << "malformed line parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("fault plan line 2:"),
                std::string::npos)
          << e.what();
    }
  }
}

// Negative fuzz over the text format, in the CorruptSnapshotTest pattern
// (tests/test_service.cpp): every truncation length and 256 seeded bit
// flips of a serialized chaos plan. Each input must either throw
// std::invalid_argument or parse to a plan that re-serializes and re-parses
// to itself. Returns whether the input parsed.
bool expect_plan_parses_or_throws(const std::string& text) {
  FaultPlan plan;
  try {
    plan = faultsim::parse_fault_plan(text);
  } catch (const std::invalid_argument&) {
    return false;
  }
  const std::string again = faultsim::serialize(plan);
  const FaultPlan reparsed = faultsim::parse_fault_plan(again);
  expect_same_plan(reparsed, plan);
  EXPECT_EQ(faultsim::serialize(reparsed), again);
  return true;
}

std::string fuzz_plan_text() {
  const auto fabric = eqh::run_cluster_fabric(FabricKind::kLeafSpine);
  return faultsim::serialize(chaos_plan(5, fabric.topo));
}

// Both outcomes must occur in each sweep, or it exercised only one side of
// the contract.
TEST(FaultPlanFuzz, EveryTruncationParsesOrThrows) {
  const std::string text = fuzz_plan_text();
  std::size_t parsed = 0;
  for (std::size_t len = 0; len <= text.size(); ++len) {
    SCOPED_TRACE("length " + std::to_string(len));
    if (expect_plan_parses_or_throws(text.substr(0, len))) ++parsed;
    if (HasFailure()) return;
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, text.size() + 1);
}

TEST(FaultPlanFuzz, SeededBitFlipsParseOrThrow) {
  const std::string text = fuzz_plan_text();
  Rng rng(17);
  constexpr std::size_t kFlips = 256;
  std::size_t parsed = 0;
  for (std::size_t k = 0; k < kFlips; ++k) {
    std::string mutated = text;
    const std::size_t off = rng.uniform_int(mutated.size());
    const int bit = static_cast<int>(rng.uniform_int(8));
    mutated[off] = static_cast<char>(
        static_cast<unsigned char>(mutated[off]) ^ (1u << bit));
    SCOPED_TRACE("offset " + std::to_string(off) + " bit " +
                 std::to_string(bit));
    if (expect_plan_parses_or_throws(mutated)) ++parsed;
    if (HasFailure()) return;
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, kFlips);
}

// Seeded byte flips: each mutated byte takes any value, not just one bit
// away from the original.
TEST(FaultPlanFuzz, SeededByteFlipsParseOrThrow) {
  const std::string text = fuzz_plan_text();
  Rng rng(31);
  constexpr std::size_t kFlips = 256;
  std::size_t parsed = 0;
  for (std::size_t k = 0; k < kFlips; ++k) {
    std::string mutated = text;
    const std::size_t off = rng.uniform_int(mutated.size());
    mutated[off] = static_cast<char>(rng.uniform_int(256));
    SCOPED_TRACE("offset " + std::to_string(off));
    if (expect_plan_parses_or_throws(mutated)) ++parsed;
    if (HasFailure()) return;
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, kFlips);
}

TEST(FaultPlanDeterminism, ParseRejectsNegativeEventTime) {
  try {
    (void)faultsim::parse_fault_plan("0.5 link-down 3\n-1 link-up 3\n");
    ADD_FAILURE() << "negative event time parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fault plan line 2: negative"),
              std::string::npos)
        << e.what();
  }
}

// ============================================================================
// 2. Injector micro-semantics (small leaf-spine, inspectable paths)
// ============================================================================

struct MicroRig {
  topology::BuiltFabric fabric;
  Simulator sim;
  FlowId flow;

  // One long cross-leaf flow, host0 (leaf 0) -> host2 (leaf 1):
  // path = [host->leaf0, leaf0->spineX, spineX->leaf1, leaf1->host].
  // 1e9 B at 10 Gb/s = 0.8 s solo, so mid-run faults catch it in flight.
  explicit MicroRig(std::uint64_t job = 0)
      : fabric(topology::make_leaf_spine({.leaves = 2,
                                          .spines = 2,
                                          .hosts_per_leaf = 2,
                                          .host_link = gbps(10),
                                          .uplink = gbps(10)})),
        sim(&fabric.topo) {
    FlowSpec spec;
    spec.src = fabric.hosts[0];
    spec.dst = fabric.hosts[2];
    spec.size = 1e9;
    spec.job = JobId{job};
    flow = sim.submit_flow(spec, {}, "cross-leaf");
  }

  // The leaf0 -> spine uplink the flow currently crosses.
  [[nodiscard]] LinkId uplink() const {
    const auto& path = sim.flow(flow).path;
    EXPECT_EQ(path.size(), 4u);
    return path[1];
  }
  // Both leaf0 -> spine uplinks (ids 0 and 2 in make_leaf_spine order).
  [[nodiscard]] std::vector<std::uint64_t> all_uplinks() const {
    return {0, 2};
  }
};

// A plan naming a link or node the topology lacks is rejected by arm(),
// before anything is scheduled; a worker target is checked when its event
// fires. Each error names the event.
TEST(InjectorMicro, OutOfRangeTargetsThrowNamingTheEvent) {
  for (const FaultKind kind :
       {FaultKind::kLinkDown, FaultKind::kLinkUp, FaultKind::kBrownout,
        FaultKind::kBrownoutEnd, FaultKind::kNodeDown, FaultKind::kNodeUp}) {
    SCOPED_TRACE(faultsim::to_string(kind));
    MicroRig rig;
    FaultPlan plan;
    plan.events.push_back({0.05, FaultKind::kLinkDown, 0, 1.0});
    plan.events.push_back({0.1, kind, 99999, 0.5});
    FaultInjector inj(&rig.sim, &rig.fabric.topo, &plan);
    try {
      inj.arm();
      ADD_FAILURE() << "out-of-range target armed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("fault plan event 1 ("),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("99999"), std::string::npos)
          << e.what();
    }
  }
  for (const FaultKind kind :
       {FaultKind::kStraggler, FaultKind::kStragglerEnd}) {
    SCOPED_TRACE(faultsim::to_string(kind));
    MicroRig rig;
    FaultPlan plan;
    plan.events.push_back({0.1, kind, 99999, 2.0});
    FaultInjector inj(&rig.sim, &rig.fabric.topo, &plan);
    inj.arm();  // workers may still be added before the event fires
    try {
      rig.sim.run();
      ADD_FAILURE() << "out-of-range worker applied";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("fault plan event 0 ("),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("no worker 99999"),
                std::string::npos)
          << e.what();
    }
  }
  // The all-links brownout target is not a link id.
  MicroRig rig;
  FaultPlan plan;
  plan.events.push_back({0.1, FaultKind::kBrownout, faultsim::kAllLinks, 0.5});
  FaultInjector inj(&rig.sim, &rig.fabric.topo, &plan);
  EXPECT_NO_THROW(inj.arm());
}

TEST(InjectorMicro, ReroutesWhenAlternateSpineSurvives) {
  MicroRig rig;
  const LinkId dead = rig.uplink();
  FaultPlan plan;
  plan.events.push_back({0.1, FaultKind::kLinkDown, dead.value(), 1.0});
  plan.events.push_back({0.5, FaultKind::kLinkUp, dead.value(), 1.0});
  FaultInjector inj(&rig.sim, &rig.fabric.topo, &plan);
  inj.arm();
  rig.sim.run();

  EXPECT_EQ(inj.summary().events_fired, 2u);
  EXPECT_EQ(inj.summary().reroutes, 1u);
  EXPECT_EQ(inj.summary().parks, 0u);
  EXPECT_EQ(inj.summary().downtime, 0.0);
  // The surviving path avoids the dead uplink; equal-capacity spines mean
  // the reroute costs no time: finish at the solo 0.8 s.
  EXPECT_NE(rig.sim.flow(rig.flow).path[1], dead);
  EXPECT_TRUE(rig.sim.flow(rig.flow).finished());
  EXPECT_NEAR(rig.sim.flow(rig.flow).finish_time, 0.8, 1e-9);
  const auto outs = inj.outcomes();
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].flow, rig.flow);
  EXPECT_EQ(outs[0].reroutes, 1);
  EXPECT_FALSE(outs[0].abandoned);
}

TEST(InjectorMicro, ParksRetriesThenAbandonsWhenNoPathReturns) {
  MicroRig rig;
  FaultPlan plan;
  plan.max_retries = 3;
  plan.retry_backoff = 0.05;
  for (const auto lid : rig.all_uplinks()) {
    plan.events.push_back({0.1, FaultKind::kLinkDown, lid, 1.0});
  }
  FaultInjector inj(&rig.sim, &rig.fabric.topo, &plan);
  inj.arm();
  rig.sim.run();

  // Park at 0.1; failed retries at 0.15 / 0.20 / 0.25; the third failure
  // exhausts the budget and abandons.
  EXPECT_EQ(inj.summary().parks, 1u);
  EXPECT_EQ(inj.summary().retries, 3u);
  EXPECT_EQ(inj.summary().abandoned, 1u);
  EXPECT_EQ(inj.summary().resumes, 0u);
  const auto& f = rig.sim.flow(rig.flow);
  EXPECT_TRUE(f.finished());           // unsuccessful completion still completes
  EXPECT_GT(f.remaining, 0.0);         // undelivered bytes stay on record
  EXPECT_NEAR(f.finish_time, 0.25, 1e-9);
  const auto outs = inj.outcomes();
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_TRUE(outs[0].abandoned);
  EXPECT_EQ(outs[0].retries, 3);
  EXPECT_NEAR(outs[0].downtime, 0.15, 1e-9);
  EXPECT_NEAR(outs[0].bytes_lost, f.remaining, 0.0);
}

TEST(InjectorMicro, ResumesOnRecoveryBeforeBudgetExhausts) {
  MicroRig rig;
  FaultPlan plan;
  plan.max_retries = 5;
  plan.retry_backoff = 0.05;
  for (const auto lid : rig.all_uplinks()) {
    plan.events.push_back({0.1, FaultKind::kLinkDown, lid, 1.0});
  }
  for (const auto lid : rig.all_uplinks()) {
    plan.events.push_back({0.22, FaultKind::kLinkUp, lid, 1.0});
  }
  FaultInjector inj(&rig.sim, &rig.fabric.topo, &plan);
  inj.arm();
  rig.sim.run();

  EXPECT_EQ(inj.summary().parks, 1u);
  EXPECT_EQ(inj.summary().resumes, 1u);
  EXPECT_EQ(inj.summary().abandoned, 0u);
  const auto& f = rig.sim.flow(rig.flow);
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(f.remaining, 0.0);
  // 0.12 s parked: finish slides from 0.8 to 0.92 exactly.
  EXPECT_NEAR(f.finish_time, 0.92, 1e-9);
  const auto outs = inj.outcomes();
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_NEAR(outs[0].downtime, 0.12, 1e-9);
}

TEST(InjectorMicro, BrownoutScalesCompletionTime) {
  MicroRig rig;
  FaultPlan plan;
  // All links at half capacity for [0, 0.4): 0.25e9 B delivered by 0.4,
  // the remaining 0.75e9 B at full rate takes 0.6 -> finish at 1.0.
  plan.events.push_back({0.0, FaultKind::kBrownout, faultsim::kAllLinks, 0.5});
  plan.events.push_back({0.4, FaultKind::kBrownoutEnd, faultsim::kAllLinks, 1.0});
  FaultInjector inj(&rig.sim, &rig.fabric.topo, &plan);
  inj.arm();
  rig.sim.run();

  EXPECT_TRUE(rig.sim.flow(rig.flow).finished());
  EXPECT_NEAR(rig.sim.flow(rig.flow).finish_time, 1.0, 1e-9);
  // BrownoutEnd restored the *exact* nominal capacities.
  for (std::size_t l = 0; l < rig.fabric.topo.link_count(); ++l) {
    EXPECT_EQ(rig.fabric.topo.link(LinkId{l}).capacity,
              rig.fabric.topo.link(LinkId{l}).capacity);  // finite
  }
  EXPECT_EQ(rig.fabric.topo.link(LinkId{0}).capacity, gbps(10));
}

TEST(InjectorMicro, JobAbortParksAndRestartResumes) {
  MicroRig rig(/*job=*/7);
  FaultPlan plan;
  plan.events.push_back({0.1, FaultKind::kJobAbort, 7, 1.0});
  plan.events.push_back({0.3, FaultKind::kJobRestart, 7, 1.0});
  FaultInjector inj(&rig.sim, &rig.fabric.topo, &plan);
  inj.arm();
  rig.sim.run();

  EXPECT_EQ(inj.summary().parks, 1u);
  EXPECT_EQ(inj.summary().resumes, 1u);
  EXPECT_EQ(inj.summary().retries, 0u);  // abort-parks wait, they don't retry
  const auto& f = rig.sim.flow(rig.flow);
  EXPECT_TRUE(f.finished());
  EXPECT_NEAR(f.finish_time, 1.0, 1e-9);  // 0.2 s parked
  const auto outs = inj.outcomes();
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_NEAR(outs[0].downtime, 0.2, 1e-9);
}

// The arrival listener defers an aborted job's park to the next event batch,
// but a zero-byte flow finishes inside submit_flow, right after that
// listener. As the last open record of a full chunk, its record is released
// before the deferred park runs, which must then leave it alone.
TEST(InjectorMicro, DeferredAbortParkSkipsAReleasedRecord) {
  auto fabric = topology::make_big_switch(2, gbps(10));
  Simulator sim(&fabric.topo);
  FaultPlan plan;
  plan.events.push_back({0.1, FaultKind::kJobAbort, 7, 1.0});
  FaultInjector inj(&sim, &fabric.topo, &plan);
  inj.arm();
  constexpr std::size_t kChunk = Simulator::kFlowChunk;
  const FlowSpec empty{.src = fabric.hosts[0], .dst = fabric.hosts[1]};
  for (std::size_t i = 0; i + 1 < kChunk; ++i) sim.submit_flow(empty);
  FlowId last;
  SimTime last_finish = kTimeInfinity;
  sim.add_flow_listener([&last_finish](Simulator&, const netsim::Flow& f) {
    if (f.id == FlowId{kChunk - 1}) last_finish = f.finish_time;
  });
  sim.schedule_at(0.2, [&](Simulator& s) {
    FlowSpec spec = empty;
    spec.job = JobId{7};
    last = s.submit_flow(std::move(spec));
  });
  EXPECT_NO_THROW(sim.run());
  ASSERT_EQ(last.value(), kChunk - 1);
  EXPECT_FALSE(sim.flow_resident(last));
  EXPECT_EQ(last_finish, 0.2);
  EXPECT_EQ(inj.summary().parks, 0u);
}

// A flow parked at birth enters the network -- and gets its kFlowStart
// record -- only on a later resume, long after submit_flow's label argument
// is gone: the simulator keeps that label until then, so the chunk line
// still carries it.
TEST(InjectorMicro, ParkedAtBirthFlowStartKeepsItsLabel) {
  auto fabric = topology::make_leaf_spine({.leaves = 2,
                                           .spines = 2,
                                           .hosts_per_leaf = 2,
                                           .host_link = gbps(10),
                                           .uplink = gbps(10)});
  Simulator sim(&fabric.topo);
  std::ostringstream chunks;
  obs::TraceChunkWriter writer(chunks);
  sim.set_trace(&writer, obs::TraceDetail::kFlow);
  FaultPlan plan;
  plan.max_retries = 5;
  plan.retry_backoff = 0.05;
  for (const std::uint64_t lid : {0, 2}) {  // both leaf0 -> spine uplinks
    plan.events.push_back({0.0, FaultKind::kLinkDown, lid, 1.0});
    plan.events.push_back({0.12, FaultKind::kLinkUp, lid, 1.0});
  }
  FaultInjector inj(&sim, &fabric.topo, &plan);
  inj.arm();
  std::vector<FlowId> born_parked;
  sim.schedule_at(0.01, [&](Simulator& s) {
    for (int i = 0; i < 2; ++i) {
      const FlowSpec spec{
          .src = fabric.hosts[0], .dst = fabric.hosts[2], .size = 1e6};
      born_parked.push_back(
          s.submit_flow(spec, {}, "born-parked." + std::to_string(i)));
      EXPECT_TRUE(s.flow(born_parked.back()).parked());
    }
  });
  sim.run();
  writer.flush();
  EXPECT_EQ(inj.summary().parks, 2u);
  EXPECT_EQ(inj.summary().resumes, 2u);

  // Chunk lines read "<E|L> kind t id job ctx value [label]".
  std::vector<std::string> start_labels(born_parked.size());
  std::istringstream in(chunks.str());
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag, t, job, ctx, value, label;
    unsigned kind = 0;
    std::uint64_t id = 0;
    if (!(fields >> tag >> kind >> t >> id >> job >> ctx >> value)) continue;
    if (kind != static_cast<unsigned>(obs::TraceKind::kFlowStart)) continue;
    fields >> label;
    ASSERT_LT(id, start_labels.size());
    EXPECT_TRUE(start_labels[id].empty()) << "two kFlowStart for flow " << id;
    EXPECT_EQ(tag, "L");
    start_labels[id] = label;
  }
  EXPECT_EQ(start_labels[0], "born-parked.0");
  EXPECT_EQ(start_labels[1], "born-parked.1");
}

// ============================================================================
// 3. Property tests
// ============================================================================

// Arming an injector with an empty plan must be byte-identical to not
// constructing one at all: the handlers it installs observe but never act.
TEST(FaultProperties, EmptyPlanIsByteIdenticalToNoInjector) {
  const FaultPlan empty;
  for (const auto kind :
       {SchedulerKind::kFairSharing, SchedulerKind::kSrpt,
        SchedulerKind::kCoflowMadd, SchedulerKind::kEchelonMadd}) {
    for (const auto fabric : {FabricKind::kBigSwitch, FabricKind::kLeafSpine}) {
      SCOPED_TRACE(std::string(cluster::to_string(kind)) + " / " +
                   (fabric == FabricKind::kBigSwitch ? "bigswitch"
                                                     : "leafspine"));
      const auto jobs = small_trace(13);
      const auto with = run_cluster(
          jobs, {.scheduler = kind, .fabric = fabric, .plan = &empty});
      const auto without =
          run_cluster(jobs, {.scheduler = kind, .fabric = fabric});
      expect_same_result(with, without);
      EXPECT_EQ(with.fault_events, 0u);
    }
  }
}

// Uniform (kAllLinks) brownouts under work-conserving fair sharing scale
// every feasible rate by the same factor, so less capacity can only delay
// completions: the makespan is monotone non-decreasing as the factor drops.
// Deliberately NOT asserted for targeted brownouts or priority schedulers:
// slowing one link can reorder SRPT/MADD decisions and finish a trace
// *earlier* (DESIGN.md §8 documents the anomaly).
TEST(FaultProperties, UniformBrownoutMonotoneUnderFairSharing) {
  const auto jobs = small_trace(29);
  double prev = -1.0;
  for (const double factor : {1.0, 0.8, 0.5, 0.3}) {
    SCOPED_TRACE("factor " + std::to_string(factor));
    FaultPlan plan;
    if (factor < 1.0) {
      plan.events.push_back(
          {0.0, FaultKind::kBrownout, faultsim::kAllLinks, factor});
    }
    const auto r = run_cluster(
        jobs, {.scheduler = SchedulerKind::kFairSharing,
               .fabric = FabricKind::kBigSwitch,
               .plan = plan.empty() ? nullptr : &plan});
    EXPECT_GE(r.makespan, prev);
    prev = r.makespan;
  }
}

// ============================================================================
// 4. Chaos certification fuzz: definitions hold under fire
// ============================================================================

int chaos_seed_budget() {
  if (const char* env = std::getenv("ECHELON_CHAOS_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
#if ECHELON_ALLOC_HOOK
  return 40;  // 40 seeds x 5 schedulers = 200 plan-runs
#else
  return 8;  // sanitizer legs: keep wall clock in check
#endif
}

TEST(ChaosDifferential, CertifiedUnderChaos) {
  const int seeds = chaos_seed_budget();
  const auto fabric = eqh::run_cluster_fabric(FabricKind::kLeafSpine);
  const SchedulerKind kinds[] = {
      SchedulerKind::kFairSharing, SchedulerKind::kSrpt,
      SchedulerKind::kCoflowMadd, SchedulerKind::kEchelonMadd};

  certify::Report total;
  for (int s = 0; s < seeds; ++s) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(s);
    const auto jobs = small_trace(seed);
    std::size_t workers = 0;
    for (const auto& j : jobs) workers += static_cast<std::size_t>(j.ranks);

    // The certified run seats every job ahead, as run_experiment does, so
    // plans slow workers too.
    ChaosProfile p;
    p.seed = seed;
    p.horizon = 1.5;
    p.link_faults = 1 + s % 3;
    p.brownouts = s % 3;
    p.stragglers = s % 2;
    p.node_faults = (s % 4 == 0) ? 1 : 0;
    p.job_aborts = (s % 5 == 0) ? 1 : 0;
    const FaultPlan plan =
        faultsim::from_chaos(p, fabric.topo, workers, jobs.size());
    ASSERT_FALSE(plan.empty());

    for (const auto kind : kinds) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                   std::string(cluster::to_string(kind)));
      const certify::Report r = certify::certified_service_run(
          jobs, {.scheduler = kind,
                 .fabric = FabricKind::kLeafSpine,
                 .plan = &plan});
      EXPECT_TRUE(r.ok()) << r.summary();
      total += r;
    }
  }
  // Non-vacuous: the sweep actually injected faults and actually disturbed
  // flows (reroutes and parks), so the definitions were checked under real
  // degradation, not no-ops.
  EXPECT_GT(total.faults, 0u) << total.summary();
  EXPECT_GT(total.reroutes + total.parks, 0u) << total.summary();
  EXPECT_GT(total.echelonflows, 0u) << total.summary();
}

// The small traces above keep most traffic inside a leaf, so their uplinks
// rarely saturate. Here every job spans both leaves and half of them are
// expert-parallel all-to-alls, whose cross-leaf traffic oversubscribes the
// 2:1 uplinks; node faults park flows at the same time. Both the spine
// bottleneck and the park path are certified.
TEST(ChaosDifferential, CrossSpineJobsCertifiedUnderNodeFaults) {
  const auto fabric = eqh::run_cluster_fabric(FabricKind::kLeafSpine);
  cluster::TraceConfig tcfg;
  tcfg.num_jobs = 4;
  tcfg.seed = 5;
  tcfg.arrival_rate = 3.0;
  tcfg.iterations = 2;
  tcfg.min_width = 4096;
  tcfg.max_width = 4096;
  tcfg.rank_choices = {12, 16};
  tcfg.paradigm_weights = {1.0, 0.0, 0.0, 0.0, 0.0, 1.0};  // DP, EP-MoE
  const auto jobs = cluster::generate_trace(tcfg);

  ChaosProfile p;
  p.seed = 5;
  p.horizon = 1.0;
  p.link_faults = 1;
  p.brownouts = 1;
  p.node_faults = 2;
  const FaultPlan plan = faultsim::from_chaos(p, fabric.topo, 0, jobs.size());

  // Fair sharing leaves flows below any cap; SRPT and EchelonFlow-MADD cap
  // every flow (the MADD family shares that shape and runs the chaos grid
  // above).
  certify::Report total;
  for (const auto kind : {SchedulerKind::kFairSharing, SchedulerKind::kSrpt,
                          SchedulerKind::kEchelonMadd}) {
    SCOPED_TRACE(cluster::to_string(kind));
    const certify::Report r = certify::certified_service_run(
        jobs, {.scheduler = kind,
               .fabric = FabricKind::kLeafSpine,
               .plan = &plan});
    EXPECT_TRUE(r.ok()) << r.summary();
    total += r;
  }
  EXPECT_GT(total.saturated_spine_links, 0u) << total.summary();
  EXPECT_GT(total.parks, 0u) << total.summary();
  EXPECT_GT(total.below_cap, 0u) << total.summary();
}

// Replaying the identical plan twice in the same process is bit-identical:
// the injector carries no hidden cross-run state.
TEST(ChaosDifferential, RepeatedReplayIsBitIdentical) {
  const auto fabric = eqh::run_cluster_fabric(FabricKind::kLeafSpine);
  const auto jobs = small_trace(77);
  const auto plan = chaos_plan(77, fabric.topo);
  RunSpec spec{.scheduler = SchedulerKind::kEchelonMadd,
               .fabric = FabricKind::kLeafSpine, .plan = &plan};
  expect_same_result(run_cluster(jobs, spec), run_cluster(jobs, spec));
}

// ============================================================================
// 5. Event-order regression: same-instant timers fire in submission order
// ============================================================================

TEST(EventOrder, SameInstantTimersFireInSubmissionOrder) {
  auto fabric = topology::make_big_switch(2, gbps(10));
  Simulator sim(&fabric.topo);
  std::vector<int> fired;
  for (int i = 0; i < 16; ++i) {
    sim.schedule_at(0.25, [i, &fired](Simulator&) { fired.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(fired.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventOrder, EpsilonEqualTimestampsStillFireInSubmissionOrder) {
  // Bitwise-distinct but epsilon-equal instants: the pre-fix heap popped
  // these in *timestamp* order, i.e. reverse submission order here. The
  // batch drain (EventQueue::pop_due) restores submission order across the
  // whole simultaneity window.
  auto fabric = topology::make_big_switch(2, gbps(10));
  Simulator sim(&fabric.topo);
  std::vector<int> fired;
  const double t = 0.25;
  const double t_lo = std::nextafter(t, 0.0);  // just below, time_eq-equal
  sim.schedule_at(t, [&fired](Simulator&) { fired.push_back(0); });
  sim.schedule_at(t_lo, [&fired](Simulator&) { fired.push_back(1); });
  sim.schedule_at(t, [&fired](Simulator&) { fired.push_back(2); });
  sim.run();
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], 0);
  EXPECT_EQ(fired[1], 1);
  EXPECT_EQ(fired[2], 2);
}

TEST(EventOrder, MidInstantScheduledWorkJoinsBackOfInstant) {
  // A callback that schedules more work at now(): the new callback carries a
  // higher sequence number and fires after everything already queued at the
  // instant -- same instant, later in the order.
  auto fabric = topology::make_big_switch(2, gbps(10));
  Simulator sim(&fabric.topo);
  std::vector<std::string> fired;
  sim.schedule_at(0.25, [&fired](Simulator& s) {
    fired.push_back("a");
    s.schedule_at(s.now(), [&fired](Simulator&) { fired.push_back("c"); });
  });
  sim.schedule_at(0.25, [&fired](Simulator&) { fired.push_back("b"); });
  sim.run();
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], "a");
  EXPECT_EQ(fired[1], "b");
  EXPECT_EQ(fired[2], "c");
  EXPECT_EQ(sim.now(), 0.25);
}

}  // namespace
}  // namespace echelon
