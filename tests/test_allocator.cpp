// Unit and property tests for the demand-limited weighted max-min allocator.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "certify.hpp"
#include "common/rng.hpp"
#include "netsim/allocator.hpp"
#include "obs/trace.hpp"
#include "topology/builders.hpp"
#include "topology/route_table.hpp"

namespace echelon::netsim {
namespace {

// Builds a flow on the given fabric with routing resolved. Its path views
// the route interned in `routes`, which must outlive the flow; `route` stays
// invalid, so the allocator treats the flow as a singleton class.
Flow make_flow(topology::RouteTable& routes, const topology::BuiltFabric& f,
               std::size_t src, std::size_t dst, Bytes size,
               std::uint64_t id = 0) {
  Flow flow;
  flow.id = FlowId{id};
  flow.spec.src = f.hosts[src];
  flow.spec.dst = f.hosts[dst];
  flow.spec.size = size;
  flow.remaining = size;
  flow.path = routes.path(*routes.route(f.hosts[src], f.hosts[dst], id));
  return flow;
}

std::vector<Flow*> ptrs(std::vector<Flow>& flows) {
  std::vector<Flow*> out;
  for (Flow& f : flows) out.push_back(&f);
  return out;
}

TEST(Allocator, SingleFlowGetsFullBandwidth) {
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> flows{make_flow(routes, f, 0, 1, 100.0)};
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 10.0);
}

TEST(Allocator, TwoFlowsSameLinkSplitEvenly) {
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> flows{make_flow(routes, f, 0, 1, 100.0, 0),
                          make_flow(routes, f, 0, 1, 100.0, 1)};
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 5.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 5.0);
}

TEST(Allocator, WeightsBiasShares) {
  auto f = topology::make_big_switch(2, 9.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> flows{make_flow(routes, f, 0, 1, 100.0, 0),
                          make_flow(routes, f, 0, 1, 100.0, 1)};
  flows[0].weight = 2.0;
  flows[1].weight = 1.0;
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 6.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 3.0);
}

TEST(Allocator, CapIsHonoredAndLeftoverRedistributed) {
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> flows{make_flow(routes, f, 0, 1, 100.0, 0),
                          make_flow(routes, f, 0, 1, 100.0, 1)};
  flows[0].rate_cap = 2.0;
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 2.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 8.0);  // work conserving for uncapped flows
}

TEST(Allocator, AllCappedLeavesCapacityUnused) {
  // Non-work-conserving by design when every flow is capped: MADD needs
  // exact pacing.
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> flows{make_flow(routes, f, 0, 1, 100.0, 0),
                          make_flow(routes, f, 0, 1, 100.0, 1)};
  flows[0].rate_cap = 2.0;
  flows[1].rate_cap = 3.0;
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 2.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 3.0);
}

TEST(Allocator, InfeasibleCapsDegradeGracefully) {
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> flows{make_flow(routes, f, 0, 1, 100.0, 0),
                          make_flow(routes, f, 0, 1, 100.0, 1)};
  flows[0].rate_cap = 8.0;
  flows[1].rate_cap = 8.0;
  auto p = ptrs(flows);
  alloc.allocate(p);
  // Equal weights: both throttle to the fair share; capacity never exceeded.
  EXPECT_DOUBLE_EQ(flows[0].rate, 5.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 5.0);
}

TEST(Allocator, DifferentDestinationsDontContend) {
  auto f = topology::make_big_switch(4, 10.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> flows{make_flow(routes, f, 0, 1, 100.0, 0),
                          make_flow(routes, f, 2, 3, 100.0, 1)};
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 10.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 10.0);
}

TEST(Allocator, IngressBottleneckShared) {
  // Two sources into one destination port.
  auto f = topology::make_big_switch(3, 10.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> flows{make_flow(routes, f, 0, 2, 100.0, 0),
                          make_flow(routes, f, 1, 2, 100.0, 1)};
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate + flows[1].rate, 10.0);
  EXPECT_DOUBLE_EQ(flows[0].rate, 5.0);
}

TEST(Allocator, MaxMinUnevenDemands) {
  // Three flows from distinct sources into one port; one is capped low, the
  // other two split the rest (classic water-filling).
  auto f = topology::make_big_switch(4, 9.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> flows{make_flow(routes, f, 0, 3, 100.0, 0),
                          make_flow(routes, f, 1, 3, 100.0, 1),
                          make_flow(routes, f, 2, 3, 100.0, 2)};
  flows[0].rate_cap = 1.0;
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 1.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 4.0);
  EXPECT_DOUBLE_EQ(flows[2].rate, 4.0);
}

TEST(Allocator, FinishedFlowsGetZero) {
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> flows{make_flow(routes, f, 0, 1, 100.0, 0),
                          make_flow(routes, f, 0, 1, 100.0, 1)};
  flows[0].state = FlowState::kFinished;
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 0.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 10.0);
}

TEST(Allocator, EmptyPathGetsInfiniteRate) {
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  Flow loop = make_flow(routes, f, 0, 1, 100.0);
  loop.path = {};  // loopback
  std::vector<Flow> flows{std::move(loop)};
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_TRUE(std::isinf(flows[0].rate));
}

// ---------------------------------------------------------------------------
// Edge cases: degenerate weights, infeasible caps, loopback flows mixed with
// contended ones, and component isolation.
// ---------------------------------------------------------------------------

// Regression: a zero- or negative-weight flow used to divide by zero in the
// water level (and trip the unfrozen_weight assert in Debug builds). Such
// weights are now clamped to kMinFlowWeight: the degenerate flow receives an
// arbitrarily small share and its neighbors keep (essentially) everything.
TEST(Allocator, ZeroWeightFlowDoesNotDivideByZero) {
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> flows{make_flow(routes, f, 0, 1, 100.0, 0),
                          make_flow(routes, f, 0, 1, 100.0, 1)};
  flows[0].weight = 0.0;
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_GE(flows[0].rate, 0.0);
  EXPECT_LE(flows[0].rate, 1e-6);  // epsilon share only
  EXPECT_NEAR(flows[1].rate, 10.0, 1e-6);
  EXPECT_LE(flows[0].rate + flows[1].rate, 10.0 + 1e-6);
}

TEST(Allocator, NegativeWeightFlowIsClampedNotCrashing) {
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> flows{make_flow(routes, f, 0, 1, 100.0, 0),
                          make_flow(routes, f, 0, 1, 100.0, 1)};
  flows[0].weight = -3.0;
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_GE(flows[0].rate, 0.0);
  EXPECT_NEAR(flows[1].rate, 10.0, 1e-6);
}

TEST(Allocator, AllZeroWeightFlowsStillSplitCapacity) {
  // Clamped equal (epsilon) weights degenerate to plain even max-min.
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> flows{make_flow(routes, f, 0, 1, 100.0, 0),
                          make_flow(routes, f, 0, 1, 100.0, 1)};
  flows[0].weight = 0.0;
  flows[1].weight = 0.0;
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 5.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 5.0);
}

TEST(Allocator, CapAboveAnyFeasibleShareActsUncapped) {
  // A cap the fabric can never satisfy must not distort the fair share.
  auto f = topology::make_big_switch(3, 10.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> flows{make_flow(routes, f, 0, 2, 100.0, 0),
                          make_flow(routes, f, 1, 2, 100.0, 1)};
  flows[0].rate_cap = 1e12;  // far above the 10.0 port
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 5.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 5.0);
}

TEST(Allocator, LoopbackFlowsMixedWithContendedOnes) {
  // Empty-path (src == dst) flows are never network-limited and must not
  // perturb the water-fill of contended flows sharing the pass.
  auto f = topology::make_big_switch(3, 10.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  Flow loop_uncapped = make_flow(routes, f, 0, 1, 100.0, 0);
  loop_uncapped.path = {};
  Flow loop_capped = make_flow(routes, f, 0, 1, 100.0, 1);
  loop_capped.path = {};
  loop_capped.rate_cap = 7.5;
  std::vector<Flow> flows;
  flows.push_back(std::move(loop_uncapped));
  flows.push_back(std::move(loop_capped));
  flows.push_back(make_flow(routes, f, 0, 2, 100.0, 2));
  flows.push_back(make_flow(routes, f, 1, 2, 100.0, 3));
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_TRUE(std::isinf(flows[0].rate));
  EXPECT_DOUBLE_EQ(flows[1].rate, 7.5);
  EXPECT_DOUBLE_EQ(flows[2].rate, 5.0);
  EXPECT_DOUBLE_EQ(flows[3].rate, 5.0);
}

// Two disjoint contention components on one fabric: churn (cap and weight
// rewrites) in one component must not perturb the other's rates -- exact
// double equality.
TEST(Allocator, ComponentChurnDoesNotPerturbCleanComponent) {
  auto f = topology::make_big_switch(4, 10.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  // Component A: hosts {0 -> 1} x2; component B: hosts {2 -> 3} x3.
  std::vector<Flow> flows{make_flow(routes, f, 0, 1, 100.0, 0),
                          make_flow(routes, f, 0, 1, 100.0, 1),
                          make_flow(routes, f, 2, 3, 100.0, 2),
                          make_flow(routes, f, 2, 3, 100.0, 3),
                          make_flow(routes, f, 2, 3, 100.0, 4)};
  flows[2].weight = 1.5;  // make B's shares non-trivial doubles
  auto p = ptrs(flows);
  alloc.allocate(p);
  const double b0 = flows[2].rate;
  const double b1 = flows[3].rate;
  const double b2 = flows[4].rate;
  // Churn A across several passes: toggle caps and weights.
  for (int pass = 0; pass < 4; ++pass) {
    flows[0].rate_cap = 1.0 + pass;
    flows[1].weight = 1.0 + 0.5 * pass;
    alloc.allocate(p);
    EXPECT_EQ(flows[2].rate, b0);  // exact: bit-identical refill
    EXPECT_EQ(flows[3].rate, b1);
    EXPECT_EQ(flows[4].rate, b2);
    // Flow 0 gets its cap, unless the shared port saturates first at the
    // weighted fair share (unit weight vs flow 1's 1.0 + 0.5 * pass).
    const double fair0 = 10.0 / (1.0 + (1.0 + 0.5 * pass));
    EXPECT_DOUBLE_EQ(flows[0].rate, std::min(1.0 + pass, fair0));
  }
}

// Runtime link-capacity changes move rates even when no flow-side input
// changed.
TEST(Allocator, RatesFollowRuntimeCapacityChange) {
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> flows{make_flow(routes, f, 0, 1, 100.0, 0),
                          make_flow(routes, f, 0, 1, 100.0, 1)};
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 5.0);
  // Degrade the uplink; no flow input changed, but rates must follow.
  f.topo.set_link_capacity(flows[0].path.front(), 4.0);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 2.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 2.0);
}

// ---------------------------------------------------------------------------
// Explicit-rate return (DESIGN.md §7): when every contended flow carries a
// cap and every link's cap sum fits its capacity (up to the relative slack
// RateAllocator::kNoise), the pass returns the caps and fills nothing.
// ---------------------------------------------------------------------------

// Sum of the rates crossing `lid`.
double link_load(const std::vector<Flow>& flows, LinkId lid) {
  double load = 0.0;
  for (const Flow& fl : flows) {
    for (const LinkId l : fl.path) {
      if (l == lid) load += fl.rate;
    }
  }
  return load;
}

TEST(AllocatorExplicitRate, CapsThatFitAreReturnedBitwise) {
  // Leaf-spine: cross-leaf flows share an oversubscribed uplink; the caps
  // are awkward doubles that sum to under every link's capacity.
  auto f = topology::make_leaf_spine({.leaves = 2,
                                      .spines = 1,
                                      .hosts_per_leaf = 2,
                                      .host_link = 10.0,
                                      .uplink = 10.0});
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> flows{make_flow(routes, f, 0, 2, 100.0, 0),
                          make_flow(routes, f, 1, 3, 100.0, 1),
                          make_flow(routes, f, 0, 3, 100.0, 2),
                          make_flow(routes, f, 2, 1, 100.0, 3)};
  flows[0].rate_cap = 10.0 / 3.0;
  flows[1].rate_cap = 10.0 / 7.0;
  flows[2].rate_cap = 1.0 / 3.0;
  flows[3].rate_cap = 0.1;
  flows[1].weight = 3.0;
  obs::TraceRecorder trace;
  alloc.set_trace(&trace, /*per_component=*/true);
  auto p = ptrs(flows);
  alloc.allocate(p);
  for (const Flow& fl : flows) EXPECT_EQ(fl.rate, *fl.rate_cap);
  EXPECT_EQ(trace.count(obs::TraceKind::kCompFill), 0u);
  EXPECT_EQ(trace.count(obs::TraceKind::kClassFill), 0u);
  ASSERT_EQ(trace.count(obs::TraceKind::kAllocPass), 1u);
  EXPECT_EQ(trace.events().front().value, 0.0);
  EXPECT_EQ(alloc.stats().passes, 1u);
  EXPECT_EQ(alloc.stats().explicit_passes, 1u);
  EXPECT_EQ(alloc.stats().components_filled, 0u);
  EXPECT_EQ(alloc.rate_changed().size(), flows.size());
  const certify::Report r = certify::certify_allocation(f.topo, p);
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(AllocatorExplicitRate, CapSumOverCapacityTakesTheFill) {
  // Two flows on one 10 B/s port. Caps summing to capacity * (1 + 1e-13)
  // are inside the slack and returned as they are; 1e-9 over is a real
  // overcommit and must be filled down to the port's capacity.
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> flows{make_flow(routes, f, 0, 1, 100.0, 0),
                          make_flow(routes, f, 0, 1, 100.0, 1)};
  auto p = ptrs(flows);
  const LinkId port = flows[0].path.front();

  flows[0].rate_cap = 5.0;
  flows[1].rate_cap = 5.0 * (1.0 + 2e-13);
  alloc.allocate(p);
  EXPECT_EQ(alloc.stats().explicit_passes, 1u);
  EXPECT_EQ(flows[1].rate, *flows[1].rate_cap);

  flows[1].rate_cap = 5.0 * (1.0 + 2e-9);
  obs::TraceRecorder trace;
  alloc.set_trace(&trace, /*per_component=*/true);
  alloc.allocate(p);
  EXPECT_EQ(alloc.stats().explicit_passes, 1u);  // this pass filled
  EXPECT_EQ(alloc.stats().components_filled, 1u);
  EXPECT_EQ(trace.count(obs::TraceKind::kCompFill), 1u);
  // The fill keeps the port within its capacity up to the fill's own slack;
  // returning the caps would overshoot it by 1e-8 B/s.
  EXPECT_LE(link_load(flows, port),
            f.topo.link(port).capacity * (1.0 + RateAllocator::kNoise));
  const certify::Report r = certify::certify_allocation(f.topo, p);
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(AllocatorExplicitRate, UncappedFlowAmongCappedTakesTheFill) {
  auto f = topology::make_big_switch(3, 10.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> flows{make_flow(routes, f, 0, 1, 100.0, 0),
                          make_flow(routes, f, 0, 2, 100.0, 1),
                          make_flow(routes, f, 1, 2, 100.0, 2)};
  flows[0].rate_cap = 2.0;
  flows[2].rate_cap = 3.0;  // flow 1 is uncapped
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_EQ(alloc.stats().explicit_passes, 0u);
  EXPECT_GT(alloc.stats().components_filled, 0u);
  EXPECT_DOUBLE_EQ(flows[0].rate, 2.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 7.0);  // host 2's downlink: 10 - 3
  EXPECT_DOUBLE_EQ(flows[2].rate, 3.0);
  const certify::Report r = certify::certify_allocation(f.topo, p);
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(AllocatorExplicitRate, CapacityCutAfterControlTakesTheFill) {
  // The caps fit when set; a runtime capacity cut before the next pass makes
  // them overcommit the port.
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> flows{make_flow(routes, f, 0, 1, 100.0, 0),
                          make_flow(routes, f, 0, 1, 100.0, 1),
                          make_flow(routes, f, 0, 1, 100.0, 2)};
  for (Flow& fl : flows) fl.rate_cap = 3.0;
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_EQ(alloc.stats().explicit_passes, 1u);
  for (const Flow& fl : flows) EXPECT_EQ(fl.rate, 3.0);

  const LinkId port = flows[0].path.front();
  f.topo.set_link_capacity(port, 6.0);
  alloc.allocate(p);
  EXPECT_EQ(alloc.stats().explicit_passes, 1u);
  EXPECT_EQ(alloc.stats().components_filled, 1u);
  for (const Flow& fl : flows) EXPECT_DOUBLE_EQ(fl.rate, 2.0);
  EXPECT_LE(link_load(flows, port), 6.0 * (1.0 + RateAllocator::kNoise));
  EXPECT_EQ(alloc.rate_changed().size(), flows.size());
  const certify::Report r = certify::certify_allocation(f.topo, p);
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(AllocatorExplicitRate, TrivialFlowsMatchTheFill) {
  // The same trivial flows (loopback with and without a cap, a zero cap, a
  // finished flow) next to one capped flow, once in an explicit pass and
  // once in a filled pass -- forced by an extra uncapped flow on a disjoint
  // host pair. Rates and the dirty set must agree flow for flow.
  auto f = topology::make_big_switch(4, 10.0);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> base;
  base.push_back(make_flow(routes, f, 0, 1, 100.0, 0));  // loopback uncapped
  base.back().path = {};
  base.push_back(make_flow(routes, f, 0, 1, 100.0, 1));  // loopback capped
  base.back().path = {};
  base.back().rate_cap = 7.5;
  base.push_back(make_flow(routes, f, 0, 1, 100.0, 2));  // zero cap
  base.back().rate_cap = 0.0;
  base.push_back(make_flow(routes, f, 0, 1, 100.0, 3));  // finished
  base.back().state = FlowState::kFinished;
  base.back().rate_cap = 1.0;
  base.push_back(make_flow(routes, f, 0, 1, 100.0, 4));  // capped, contended
  base.back().rate_cap = 4.0;
  base.push_back(make_flow(routes, f, 0, 1, 100.0, 5));  // unchanged rate
  base.back().rate_cap = 2.0;
  for (Flow& fl : base) fl.rate = 1.0;
  base[5].rate = 2.0;

  std::vector<Flow> expl = base;
  std::vector<Flow> filled = base;
  filled.push_back(make_flow(routes, f, 2, 3, 100.0, 6));  // uncapped

  RateAllocator a(&f.topo);
  RateAllocator b(&f.topo);
  auto pa = ptrs(expl);
  auto pb = ptrs(filled);
  a.allocate(pa);
  b.allocate(pb);
  ASSERT_EQ(a.stats().explicit_passes, 1u);
  ASSERT_EQ(b.stats().explicit_passes, 0u);
  for (std::size_t i = 0; i < base.size(); ++i) {
    SCOPED_TRACE("flow " + std::to_string(i));
    EXPECT_EQ(expl[i].rate, filled[i].rate);
  }
  EXPECT_TRUE(std::isinf(expl[0].rate));
  EXPECT_EQ(expl[1].rate, 7.5);
  EXPECT_EQ(expl[2].rate, 0.0);
  EXPECT_EQ(expl[3].rate, 0.0);
  EXPECT_EQ(expl[4].rate, 4.0);
  // Dirty sets: the extra flow aside, the same flows in the same order.
  std::vector<FlowId> da;
  std::vector<FlowId> db;
  for (const Flow* fl : a.rate_changed()) da.push_back(fl->id);
  for (const Flow* fl : b.rate_changed()) {
    if (fl->id != FlowId{6}) db.push_back(fl->id);
  }
  EXPECT_EQ(da, db);
  EXPECT_EQ(da, (std::vector<FlowId>{FlowId{0}, FlowId{1}, FlowId{2},
                                     FlowId{3}, FlowId{4}}));
}

TEST(AllocatorExplicitRate, WeightsAreIgnored) {
  // Weighted max-min with caps that fit is the caps, whatever the weights:
  // zero, negative and large weights give the same rates as unit ones.
  auto f = topology::make_big_switch(3, 10.0);
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);
  std::vector<Flow> flows{make_flow(routes, f, 0, 1, 100.0, 0),
                          make_flow(routes, f, 0, 2, 100.0, 1),
                          make_flow(routes, f, 1, 2, 100.0, 2)};
  flows[0].rate_cap = 4.0 / 3.0;
  flows[1].rate_cap = 8.0 / 3.0;
  flows[2].rate_cap = 5.0;
  auto p = ptrs(flows);
  alloc.allocate(p);
  std::vector<double> unit;
  for (const Flow& fl : flows) unit.push_back(fl.rate);
  flows[0].weight = 0.0;
  flows[1].weight = -2.0;
  flows[2].weight = 1e6;
  alloc.allocate(p);
  EXPECT_EQ(alloc.stats().explicit_passes, 2u);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(flows[i].rate, unit[i]);
    EXPECT_EQ(flows[i].rate, *flows[i].rate_cap);
  }
}

// ---------------------------------------------------------------------------
// Property sweep: a weighted max-min certificate on random instances. The
// allocation must (a) never exceed any link capacity, (b) never exceed a
// flow's cap, and (c) be weighted max-min fair: every flow below its cap
// crosses a saturated link on which its normalized rate (rate / weight) is
// the largest among that link's flows. (c) is the bottleneck definition --
// raising the flow would have to take rate from a flow whose normalized
// rate is no larger -- so it checks the fill against the definition rather
// than against another implementation. Big-switch instances have two-link
// paths; leaf-spine instances add four-link cross-leaf paths over shared,
// oversubscribed uplinks, so components span several bottlenecks.
// ---------------------------------------------------------------------------

enum class PropertyFabric { kBigSwitch, kLeafSpine };
using PropertyParam = std::tuple<PropertyFabric, int>;

class AllocatorProperty : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(AllocatorProperty, FeasibleAndWeightedMaxMin) {
  const auto [fabric_kind, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const double cap = rng.uniform(1.0, 100.0);
  topology::BuiltFabric f;
  if (fabric_kind == PropertyFabric::kBigSwitch) {
    f = topology::make_big_switch(2 + static_cast<int>(rng.uniform_int(6)),
                                  cap);
  } else {
    f = topology::make_leaf_spine(
        {.leaves = 2 + static_cast<int>(rng.uniform_int(3)),
         .spines = 1 + static_cast<int>(rng.uniform_int(3)),
         .hosts_per_leaf = 2 + static_cast<int>(rng.uniform_int(3)),
         .host_link = cap,
         .uplink = cap * rng.uniform(0.25, 1.5)});
  }
  const std::size_t hosts = f.hosts.size();
  RateAllocator alloc(&f.topo);
  topology::RouteTable routes(&f.topo);

  const int n = 1 + static_cast<int>(rng.uniform_int(30));
  std::vector<Flow> flows;
  for (int i = 0; i < n; ++i) {
    const std::size_t src = rng.uniform_int(hosts);
    std::size_t dst = rng.uniform_int(hosts);
    if (dst == src) dst = (dst + 1) % hosts;
    Flow fl =
        make_flow(routes, f, src, dst, 100.0, static_cast<std::uint64_t>(i));
    fl.weight = rng.uniform(0.1, 4.0);
    if (rng.bernoulli(0.5)) fl.rate_cap = rng.uniform(0.0, cap * 1.5);
    flows.push_back(std::move(fl));
  }
  auto p = ptrs(flows);
  alloc.allocate(p);

  // (a) capacity feasibility.
  std::vector<double> load(f.topo.link_count(), 0.0);
  for (const Flow& fl : flows) {
    for (LinkId lid : fl.path) load[lid.value()] += fl.rate;
  }
  const auto saturated = [&](LinkId lid) {
    return load[lid.value()] >= f.topo.link(lid).capacity - 1e-6;
  };
  for (std::size_t l = 0; l < load.size(); ++l) {
    EXPECT_LE(load[l], f.topo.link(LinkId{l}).capacity + 1e-6);
  }
  // (b) caps respected.
  for (const Flow& fl : flows) {
    EXPECT_GE(fl.rate, -1e-12);
    if (fl.rate_cap) {
      EXPECT_LE(fl.rate, *fl.rate_cap + 1e-9);
    }
  }
  // (c) weighted max-min: every flow below its cap has a bottleneck link.
  std::vector<double> top_level(f.topo.link_count(), 0.0);
  for (const Flow& fl : flows) {
    for (LinkId lid : fl.path) {
      top_level[lid.value()] =
          std::max(top_level[lid.value()], fl.rate / fl.weight);
    }
  }
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Flow& fl = flows[i];
    if (fl.rate_cap && fl.rate >= *fl.rate_cap - 1e-9) continue;
    const double level = fl.rate / fl.weight;
    bool bottlenecked = false;
    for (LinkId lid : fl.path) {
      if (saturated(lid) &&
          level >= top_level[lid.value()] * (1.0 - 1e-9) - 1e-12) {
        bottlenecked = true;
        break;
      }
    }
    EXPECT_TRUE(bottlenecked)
        << "flow " << i << " below its cap has no saturated link on which "
        << "its rate / weight (" << level << ") is the largest";
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, AllocatorProperty,
    ::testing::Combine(::testing::Values(PropertyFabric::kBigSwitch,
                                         PropertyFabric::kLeafSpine),
                       ::testing::Range(0, 40)),
    [](const ::testing::TestParamInfo<PropertyParam>& info) {
      return std::string(std::get<0>(info.param) == PropertyFabric::kBigSwitch
                             ? "bigswitch_"
                             : "leafspine_") +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace echelon::netsim
