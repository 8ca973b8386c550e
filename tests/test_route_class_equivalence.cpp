// Route interning + equivalence-class water-fill: the certification suite.
//
// The route-interning layer (topology::RouteTable, DESIGN.md §11) and the
// class-granularity max-min fill are performance restructurings: every
// allocation they produce must still be the weighted max-min allocation its
// definition fixes (certified by tests/certify.hpp), and route computations
// must scale with distinct destinations per capacity epoch, not with flow
// count or ECMP seeds. This binary pins all of that:
//
//   1. RouteTable unit semantics: intern dedupe, path round-trip, the
//      epoch-gated per-destination distances, unreachable lookups (exact
//      Stats), and a differential against the uncached Topology::route()
//      on every canned fabric through a seeded sequence of link mutations.
//   2. Route-computation regression under a flap-heavy fault plan: N flows
//      to one destination cost one BFS per epoch, not one per reroute.
//   3. Dense-level fuzz: certify_allocation on randomized flow sets with
//      heavy route/weight/cap sharing (multi-member classes) plus
//      uninterned direct-path flows (sentinel singleton classes).
//   4. Cluster-shaped certification: 6 schedulers x 2 fabrics, plus the
//      class census (one kClassFill per component fill).
//   5. Chaos certification: >= 100 distinct flap-heavy fault plans (seed x
//      scheduler grid) under fire.
//   6. Zero-allocation steady state: the class fill's arenas reach their
//      high-water mark and stop allocating, and the class partition is
//      exact (counted classes match the constructed sharing structure).
//   7. Experiment-level telemetry: routes.* / alloc.classes counters export
//      through the metrics registry with their documented identities.

#include <cstdlib>
#include <string>
#include <vector>

#include "equivalence_harness.hpp"
#include "faultsim/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "topology/route_table.hpp"

namespace echelon {
namespace {

using cluster::FabricKind;
using cluster::SchedulerKind;
using faultsim::ChaosProfile;
using faultsim::FaultInjector;
using faultsim::FaultKind;
using faultsim::FaultPlan;
using netsim::Flow;
using netsim::FlowSpec;
using netsim::Simulator;
using eqh::run_cluster;
using eqh::RunSpec;
using eqh::small_trace;

// ============================================================================
// 1. RouteTable unit semantics
// ============================================================================

TEST(RouteTable, InternDeduplicatesAndRoundTrips) {
  const auto fabric = topology::make_big_switch(8, gbps(10));
  topology::RouteTable table(&fabric.topo);
  const topology::Path p01 =
      *fabric.topo.route(fabric.hosts[0], fabric.hosts[1], 0);
  const topology::Path p02 =
      *fabric.topo.route(fabric.hosts[0], fabric.hosts[2], 0);

  const RouteId a = table.intern(p01);
  const RouteId b = table.intern(p02);
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a, b);
  // Interning the same link sequence again returns the existing id.
  EXPECT_EQ(table.intern(p01), a);
  EXPECT_EQ(table.intern(p02), b);
  EXPECT_EQ(table.size(), 2u);
  // path() is the exact canonical sequence, forever.
  EXPECT_EQ(table.path(a), p01);
  EXPECT_EQ(table.path(b), p02);
  // Interning does not touch the route() lookup telemetry.
  EXPECT_EQ(table.stats().lookups, 0u);
}

TEST(RouteTable, CacheServesByEpochAndRecomputesToTheSameId) {
  auto fabric = topology::make_big_switch(8, gbps(10));
  topology::RouteTable table(&fabric.topo);
  const NodeId src = fabric.hosts[0];
  const NodeId dst = fabric.hosts[1];

  const auto first = table.route(src, dst, 7);
  ASSERT_TRUE(first.has_value());
  for (int i = 0; i < 99; ++i) {
    EXPECT_EQ(table.route(src, dst, 7), first);
  }
  EXPECT_EQ(table.stats().lookups, 100u);
  EXPECT_EQ(table.stats().computations, 1u);
  EXPECT_EQ(table.stats().hits, 99u);

  // The cache is keyed by destination alone: a new seed, or a new source
  // towards the same destination, walks the cached distances without a
  // BFS. A single-path fabric routes the new seed identically, so the
  // intern table collapses it to the same RouteId.
  EXPECT_EQ(table.route(src, dst, 8), first);
  ASSERT_TRUE(table.route(fabric.hosts[2], dst, 8).has_value());
  EXPECT_EQ(table.stats().computations, 1u);
  EXPECT_EQ(table.size(), 2u);
  // A new destination costs one BFS.
  ASSERT_TRUE(table.route(src, fabric.hosts[2], 7).has_value());
  EXPECT_EQ(table.stats().computations, 2u);

  // Any topology mutation bumps the capacity epoch and invalidates every
  // distance array; the recomputed (identical) path dedupes back to the
  // same id.
  const LinkId flapped = table.path(*first)[0];
  fabric.topo.set_link_up(flapped, false);
  fabric.topo.set_link_up(flapped, true);
  EXPECT_EQ(table.route(src, dst, 7), first);
  EXPECT_EQ(table.stats().computations, 3u);
  fabric.topo.set_link_capacity(flapped, gbps(10) / 2);
  EXPECT_EQ(table.route(src, dst, 9), first);
  EXPECT_EQ(table.stats().computations, 4u);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.stats().hits + table.stats().computations,
            table.stats().lookups);
}

TEST(RouteTable, UnreachableVerdictsAreCachedPerEpoch) {
  auto fabric = topology::make_big_switch(8, gbps(10));
  topology::RouteTable table(&fabric.topo);
  const NodeId src = fabric.hosts[0];
  const NodeId dst = fabric.hosts[1];

  const auto route = table.route(src, dst, 3);
  ASSERT_TRUE(route.has_value());
  // Sever the source host's only uplink: dst becomes unreachable.
  const LinkId uplink = table.path(*route)[0];
  fabric.topo.set_link_up(uplink, false);

  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(table.route(src, dst, 3 + i).has_value());
  }
  // One BFS found dst's new distances; every retry, whatever its seed, reads
  // the verdict off them -- the flap-retry economics the table exists for.
  // `unreachable` counts lookups, not BFS runs.
  EXPECT_EQ(table.stats().computations, 2u);
  EXPECT_EQ(table.stats().unreachable, 10u);
  EXPECT_EQ(table.stats().hits, 9u);
  // Other hosts still reach dst from the same distance array.
  EXPECT_TRUE(table.route(fabric.hosts[2], dst, 3).has_value());
  EXPECT_EQ(table.stats().computations, 2u);

  fabric.topo.set_link_up(uplink, true);
  EXPECT_EQ(table.route(src, dst, 3), route);
  EXPECT_EQ(table.stats().computations, 3u);
  EXPECT_EQ(table.stats().unreachable, 10u);
}

// Every host pair of every canned fabric, several seeds per pair: the cached
// route must be link-for-link the uncached Topology::route(), before and
// after each step of a seeded sequence of link downs, ups and capacity
// changes -- including steps that leave pairs unreachable. Each key is
// looked up twice per epoch, so the second lookup of a reachable pair comes
// from the route memo; both must match. Each epoch costs exactly one BFS per
// destination looked up.
TEST(RouteTable, MatchesUncachedRouteThroughSeededLinkMutations) {
  std::vector<std::pair<std::string, topology::BuiltFabric>> fabrics;
  fabrics.emplace_back("big-switch", topology::make_big_switch(6, gbps(10)));
  fabrics.emplace_back("leaf-spine",
                       topology::make_leaf_spine({.leaves = 3,
                                                  .spines = 2,
                                                  .hosts_per_leaf = 2,
                                                  .host_link = gbps(10),
                                                  .uplink = gbps(10)}));
  fabrics.emplace_back("fat-tree", topology::make_fat_tree(4, gbps(10)));
  constexpr std::uint64_t kSeeds[] = {0, 1, 7, 42, 0x9e3779b97f4a7c15ULL};
  constexpr int kSteps = 12;

  for (auto& [name, fabric] : fabrics) {
    SCOPED_TRACE(name);
    topology::Topology& topo = fabric.topo;
    topology::RouteTable table(&topo);
    Rng rng(0xfab + topo.link_count());
    std::uint64_t routed = 0;
    std::uint64_t unreachable = 0;
    for (int step = 0; step <= kSteps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const std::uint64_t epoch_before = topo.capacity_epoch();
      if (step > 0) {
        // One seeded mutation per step, biased towards downs so some pairs
        // become unreachable before later ups reconnect them.
        const LinkId lid{rng.uniform_int(topo.link_count())};
        const double u = rng.uniform();
        if (u < 0.5) {
          topo.set_link_up(lid, false);
        } else if (u < 0.8) {
          topo.set_link_up(lid, true);
        } else {
          topo.set_link_capacity(lid, gbps(1.0 + rng.uniform(0.0, 9.0)));
        }
      }
      const std::uint64_t bfs_before = table.stats().computations;
      for (const NodeId dst : fabric.hosts) {
        for (const NodeId src : fabric.hosts) {
          for (const std::uint64_t seed : kSeeds) {
            const auto expected = topo.route(src, dst, seed);
            for (int lookup = 0; lookup < 2; ++lookup) {
              const auto got = table.route(src, dst, seed);
              ASSERT_EQ(got.has_value(), expected.has_value())
                  << src.value() << " -> " << dst.value() << " seed " << seed
                  << " lookup " << lookup;
              if (!got.has_value()) {
                ++unreachable;
                continue;
              }
              ++routed;
              ASSERT_EQ(table.path(*got), *expected)
                  << src.value() << " -> " << dst.value() << " seed " << seed
                  << " lookup " << lookup;
            }
          }
        }
      }
      // Raising an up link is a no-op that keeps the epoch, and with it
      // every distance array.
      const bool new_epoch = step == 0 || topo.capacity_epoch() != epoch_before;
      EXPECT_EQ(table.stats().computations - bfs_before,
                new_epoch ? fabric.hosts.size() : 0u);
    }
    // Non-vacuous: the mutations both severed and kept pairs.
    EXPECT_GT(routed, 0u);
    EXPECT_GT(unreachable, 0u);
    EXPECT_EQ(table.stats().unreachable, unreachable);
    EXPECT_EQ(table.stats().hits + table.stats().computations,
              table.stats().lookups);
  }
}

// The route memo is fixed-size: 100k distinct (src, dst, seed) keys
// overwrite slots rather than add them, and every answer is still the
// uncached route.
TEST(RouteTable, MemoFootprintIsFixedAcrossDistinctKeys) {
  auto fabric = topology::make_fat_tree(4, gbps(10));
  topology::RouteTable table(&fabric.topo);
  const std::size_t hosts = fabric.hosts.size();
  ASSERT_TRUE(table.route(fabric.hosts[0], fabric.hosts[1], 0).has_value());
  const std::size_t footprint = table.memo_bytes();
  EXPECT_GT(footprint, 0u);
  constexpr std::uint64_t kKeys = 100000;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const NodeId src = fabric.hosts[k % hosts];
    const NodeId dst = fabric.hosts[(k / hosts + 1 + k) % hosts];
    const std::uint64_t seed = k / hosts;
    const auto got = table.route(src, dst, seed);
    ASSERT_TRUE(got.has_value());
    if (k % 997 == 0) {
      ASSERT_EQ(table.path(*got), *fabric.topo.route(src, dst, seed)) << k;
    }
  }
  EXPECT_EQ(table.memo_bytes(), footprint);
  EXPECT_EQ(table.stats().lookups, kKeys + 1);
  EXPECT_EQ(table.stats().hits + table.stats().computations,
            table.stats().lookups);
  // The intern table grows with distinct paths, which the fabric bounds.
  EXPECT_LE(table.size(), hosts * hosts * 4);
}

// ============================================================================
// 2. Route-computation regression under a flap-heavy plan
// ============================================================================

// Eight long flows share one (src, dst, ecmp_seed) key across a 2-spine
// leaf-spine fabric while a plan flaps the uplink they currently cross five
// times. Every flap forces a fleet-wide reroute, but the table must pay
// exactly one BFS per flap -- computations scale with epochs, not flows.
TEST(RouteCacheRegression, FlapHeavyPlanComputesOncePerEpochNotPerFlow) {
  auto fabric = topology::make_leaf_spine({.leaves = 2,
                                           .spines = 2,
                                           .hosts_per_leaf = 2,
                                           .host_link = gbps(10),
                                           .uplink = gbps(10)});
  Simulator sim(&fabric.topo);
  constexpr int kFlows = 8;
  std::vector<FlowId> flows;
  for (int i = 0; i < kFlows; ++i) {
    FlowSpec spec;
    spec.src = fabric.hosts[0];
    spec.dst = fabric.hosts[2];  // cross-leaf: host->leaf->spine->leaf->host
    spec.size = 1e9;
    spec.route_hint = 42;  // one shared ECMP key for the whole fleet
    flows.push_back(sim.submit_flow(spec, {}, "bulk" + std::to_string(i)));
  }
  // One BFS routed the whole fleet.
  EXPECT_EQ(sim.routes().stats().lookups, 8u);
  EXPECT_EQ(sim.routes().stats().computations, 1u);
  EXPECT_EQ(sim.routes().stats().hits, 7u);

  // The uplink the fleet sits on now, and the alternate spine's uplink.
  const LinkId on = sim.flow(flows[0]).path[1];
  const LinkId other = on.value() == 0 ? LinkId{2} : LinkId{0};

  // Alternate flapping the occupied uplink: each down lands on the link the
  // fleet currently crosses (it migrated to the other spine at the previous
  // down and stays there through the up).
  FaultPlan plan;
  for (int k = 0; k < 5; ++k) {
    const std::uint64_t target = (k % 2 == 0 ? on : other).value();
    plan.events.push_back(
        {0.1 + 0.2 * k, FaultKind::kLinkDown, target, 1.0});
    plan.events.push_back({0.2 + 0.2 * k, FaultKind::kLinkUp, target, 1.0});
  }
  FaultInjector inj(&sim, &fabric.topo, &plan);
  inj.arm();
  sim.run();

  EXPECT_EQ(inj.summary().events_fired, 10u);
  EXPECT_EQ(inj.summary().reroutes, 5u * kFlows);
  const topology::RouteTable::Stats& st = sim.routes().stats();
  // 8 submits + 5 reroute sweeps x 8 flows = 48 lookups, but only 6 BFS
  // runs ever happened: one at submit, one per flap epoch.
  EXPECT_EQ(st.lookups, 48u);
  EXPECT_EQ(st.computations, 6u);
  EXPECT_EQ(st.hits, 42u);
  EXPECT_EQ(st.unreachable, 0u);
  for (const FlowId id : flows) {
    EXPECT_TRUE(sim.flow(id).finished());
    EXPECT_LE(sim.flow(id).remaining, 0.0);
  }
}

// ============================================================================
// 3. Dense-level fuzz: every class-fill allocation certified
// ============================================================================

// Randomized flow sets engineered for heavy class sharing: a handful of
// (src, dst) pairs routed through one intern table (identical Path objects
// and RouteIds), weights and caps drawn mostly from small discrete sets so
// (route, weight, cap) classes have many members -- plus a sprinkle of
// flows with a direct path write and no interned RouteId, which must fall
// back to sentinel singleton classes. The class fill's rates must be the
// weighted max-min allocation.
TEST(RouteClassDense, ClassFillCertifiedOnSharedRoutes) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto fabric = topology::make_big_switch(16, 10e9);
    topology::RouteTable table(&fabric.topo);
    Rng rng(seed * 7919 + 17);
    const std::size_t hosts = fabric.hosts.size();

    // Six endpoint pairs, each with a stable interned route.
    struct Pair {
      NodeId src, dst;
      RouteId route;
    };
    std::vector<Pair> pairs;
    while (pairs.size() < 6) {
      const auto src = fabric.hosts[rng.uniform_int(hosts)];
      const auto dst = fabric.hosts[rng.uniform_int(hosts)];
      if (src == dst) continue;
      const auto rid = table.route(src, dst, pairs.size());
      ASSERT_TRUE(rid.has_value());
      pairs.push_back({src, dst, *rid});
    }

    const int n = 64 + static_cast<int>(rng.uniform_int(128));
    std::vector<Flow> flows;
    for (int i = 0; i < n; ++i) {
      Flow f;
      f.id = FlowId{static_cast<std::uint64_t>(i)};
      const Pair& p = pairs[rng.uniform_int(pairs.size())];
      f.spec.src = p.src;
      f.spec.dst = p.dst;
      f.spec.size = rng.uniform(1e3, 100e6);
      f.remaining = f.spec.size;
      f.path = table.path(p.route);
      if (rng.uniform() < 0.9) {
        f.route = p.route;  // interned: eligible for multi-member classes
      }                     // else: direct path write, sentinel singleton
      // Mostly discrete weights/caps (class collisions), some continuous.
      const double u = rng.uniform();
      f.weight = u < 0.4 ? 1.0 : u < 0.7 ? 2.0 : rng.uniform(0.25, 4.0);
      const double c = rng.uniform();
      if (c < 0.2) {
        f.rate_cap = 4e8;
      } else if (c < 0.35) {
        f.rate_cap = rng.uniform(0.0, 2e9);
      }
      flows.push_back(std::move(f));
    }
    std::vector<Flow*> ptrs;
    for (Flow& f : flows) ptrs.push_back(&f);

    netsim::RateAllocator alloc(&fabric.topo);
    alloc.allocate(ptrs);
    const certify::Report r = certify::certify_allocation(fabric.topo, ptrs);
    EXPECT_TRUE(r.ok()) << r.summary();
    EXPECT_EQ(r.flows_checked, static_cast<std::uint64_t>(n));
    EXPECT_GT(r.below_cap, 0u);
    EXPECT_GT(r.saturated_links, 0u);
    // The sharing structure actually compressed: fewer classes than flows.
    EXPECT_GT(alloc.stats().class_members, alloc.stats().classes);
    EXPECT_EQ(alloc.stats().class_members, static_cast<std::uint64_t>(n));
  }
}

// ============================================================================
// 4. Cluster-shaped certification + class census
// ============================================================================

using RouteClassEquivalence = eqh::SchedFabricTest;

TEST_P(RouteClassEquivalence, ClassFillCertified) {
  const auto [sched, fabric] = GetParam();
  const auto jobs = small_trace(11);
  const certify::Report r = eqh::certified_run(
      jobs, {.scheduler = sched, .fabric = fabric});
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_GT(r.passes, 0u);
  // Every policy but fair sharing caps each flow at a feasible rate.
  if (sched == SchedulerKind::kFairSharing) {
    EXPECT_GT(r.below_cap, 0u);
  }
  EXPECT_GT(r.byte_checks, 0u);
  EXPECT_GT(r.echelonflows, 0u);

  // Class census: one kClassFill per component fill. Every pass either
  // fills (its kAllocPass value counts the components filled, >= 1) or
  // returns the caps (value 0, counted in alloc.explicit_passes).
  obs::TraceRecorder trace(1u << 20);
  obs::MetricsRegistry metrics;
  (void)run_cluster(jobs, {.scheduler = sched,
                           .fabric = fabric,
                           .trace_sink = &trace,
                           .metrics = &metrics});
  ASSERT_EQ(trace.dropped(), 0u);
  EXPECT_EQ(trace.count(obs::TraceKind::kClassFill),
            trace.count(obs::TraceKind::kCompFill));
  std::uint64_t filled_passes = 0;
  for (const obs::TraceEvent& ev : trace.events()) {
    if (ev.kind == obs::TraceKind::kAllocPass && ev.value > 0.0) {
      ++filled_passes;
    }
  }
  const std::uint64_t explicit_passes =
      metrics.counter("alloc.explicit_passes").value();
  EXPECT_EQ(filled_passes + explicit_passes,
            trace.count(obs::TraceKind::kAllocPass));
  EXPECT_EQ(metrics.counter("alloc.passes").value(),
            trace.count(obs::TraceKind::kAllocPass));
  if (sched == SchedulerKind::kFairSharing) {
    // Uncapped flows always reach the fill.
    EXPECT_GT(trace.count(obs::TraceKind::kClassFill), 0u);
    EXPECT_GT(filled_passes, 0u);
  } else {
    // Cap-setting policies hand over caps that fit.
    EXPECT_GT(explicit_passes, 0u);
  }
}

ECHELON_INSTANTIATE_SCHED_FABRIC(RouteClassEquivalence);

// ============================================================================
// 5. Chaos certification: >= 100 flap-heavy plans under fire
// ============================================================================

int chaos_seed_budget() {
  if (const char* env = std::getenv("ECHELON_CHAOS_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
#if ECHELON_ALLOC_HOOK
  return 20;  // 20 seeds x 5 schedulers = 100 distinct plans
#else
  return 4;  // sanitizer legs: keep wall clock in check
#endif
}

TEST(RouteClassChaos, HundredFlapHeavyPlansCertified) {
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

    int ki = 0;
    for (const SchedulerKind kind : kinds) {
      // One distinct plan per (seed, scheduler) grid point, link-flap
      // heavy: reroute storms are where route interning and class
      // repartitioning earn their keep. No stragglers: they move no
      // flow.
      ChaosProfile p;
      p.seed = 3000 + static_cast<std::uint64_t>(s) * 16 +
               static_cast<std::uint64_t>(ki);
      p.horizon = 1.5;
      p.link_faults = 2 + (s + ki) % 3;
      p.brownouts = s % 2;
      p.stragglers = 0;
      p.node_faults = ((s + ki) % 4 == 0) ? 1 : 0;
      p.job_aborts = ((s + ki) % 5 == 0) ? 1 : 0;
      const FaultPlan plan =
          faultsim::from_chaos(p, fabric.topo, workers, jobs.size());
      ASSERT_FALSE(plan.empty());

      SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                   std::string(cluster::to_string(kind)));
      const certify::Report r = eqh::certified_run(
          jobs, {.scheduler = kind,
                 .fabric = FabricKind::kLeafSpine,
                 .plan = &plan});
      EXPECT_TRUE(r.ok()) << r.summary();
      total += r;
      ++ki;
    }
  }
  // Non-vacuous: the plans fired and disturbed flows. (Parks and spine
  // saturation are certified by the cross-spine fault scenario in
  // tests/test_faults.cpp.)
  EXPECT_GT(total.faults, 0u) << total.summary();
  EXPECT_GT(total.reroutes + total.parks, 0u) << total.summary();
  EXPECT_GT(total.below_cap, 0u) << total.summary();
}

// ============================================================================
// 6. Zero-allocation steady state + exact class census
// ============================================================================

// 256 flows over 8 disjoint routes with a deliberate (weight, cap) sharing
// structure: per route, three distinct (weight, cap) combinations => exactly
// 24 classes per pass over 256 member flows. After warm-up the class fill's
// arenas are at their high-water mark and repeated passes allocate nothing.
TEST(RouteClassSteadyState, ClassFillIsAllocationFreeAndCensusIsExact) {
  const auto fabric = topology::make_big_switch(16, 10e9);
  topology::RouteTable table(&fabric.topo);
  constexpr int kPairs = 8;
  constexpr int kFlows = 256;

  std::vector<Flow> flows;
  for (int i = 0; i < kFlows; ++i) {
    Flow f;
    f.id = FlowId{static_cast<std::uint64_t>(i)};
    const int pair = i % kPairs;
    f.spec.src = fabric.hosts[static_cast<std::size_t>(pair)];
    f.spec.dst = fabric.hosts[static_cast<std::size_t>(pair + kPairs)];
    f.spec.size = 1e9;
    f.remaining = f.spec.size;
    const auto rid = table.route(f.spec.src, f.spec.dst, pair);
    ASSERT_TRUE(rid.has_value());
    f.route = *rid;
    f.path = table.path(*rid);
    // Stripe weights/caps by i/8 so every route sees all three classes:
    // (w=1, capped), (w=1, uncapped), (w=2, uncapped).
    const int stripe = i / kPairs;
    f.weight = stripe % 2 == 0 ? 1.0 : 2.0;
    if (stripe % 4 == 0) f.rate_cap = 5e8;
    flows.push_back(std::move(f));
  }
  std::vector<Flow*> ptrs;
  for (Flow& f : flows) ptrs.push_back(&f);

  netsim::RateAllocator alloc(&fabric.topo);
  alloc.allocate(ptrs);  // sizes the arenas
  alloc.allocate(ptrs);  // confirms the high-water mark
  const netsim::RateAllocator::Stats warm = alloc.stats();
  EXPECT_EQ(warm.class_members, warm.passes * kFlows);
  EXPECT_EQ(warm.classes, warm.passes * 24);

#if ECHELON_ALLOC_HOOK
  eqh::alloc_count_begin();
  for (int pass = 0; pass < 10; ++pass) alloc.allocate(ptrs);
  EXPECT_EQ(eqh::alloc_count_end(), 0u)
      << "class-granularity steady state must not allocate";
#else
  GTEST_SKIP() << "allocation hook disabled under this sanitizer";
#endif
}

// ============================================================================
// 7. Experiment-level telemetry export
// ============================================================================

TEST(RouteClassTelemetry, ExperimentExportsRouteAndClassCounters) {
  // Fair sharing: its uncapped flows reach the class fill, so the class
  // counters below count something.
  obs::MetricsRegistry reg;
  (void)run_cluster(small_trace(5), {.scheduler = SchedulerKind::kFairSharing,
                                     .fabric = FabricKind::kLeafSpine,
                                     .metrics = &reg});
  // Only its passes without a contended flow skip the fill.
  EXPECT_LT(reg.counter("alloc.explicit_passes").value(),
            reg.counter("alloc.passes").value());

  const std::uint64_t lookups = reg.counter("routes.lookups").value();
  const std::uint64_t hits = reg.counter("routes.cache_hits").value();
  const std::uint64_t computations = reg.counter("routes.computations").value();
  EXPECT_GT(lookups, 0u);
  EXPECT_GT(computations, 0u);
  // The documented RouteTable identity survives the export.
  EXPECT_EQ(hits + computations, lookups);
  EXPECT_GT(reg.counter("routes.distinct").value(), 0u);

  const std::uint64_t classes = reg.counter("alloc.classes").value();
  const std::uint64_t members = reg.counter("alloc.class_members").value();
  EXPECT_GT(classes, 0u);
  EXPECT_GE(members, classes);
  EXPECT_GT(reg.gauge("alloc.flows_per_class").value(), 0.0);

  // EchelonFlow-MADD hands over caps that fit: its passes take the
  // explicit-rate return.
  obs::MetricsRegistry madd;
  (void)run_cluster(small_trace(5), {.scheduler = SchedulerKind::kEchelonMadd,
                                     .fabric = FabricKind::kLeafSpine,
                                     .metrics = &madd});
  EXPECT_GT(madd.counter("alloc.explicit_passes").value(), 0u);
  EXPECT_LE(madd.counter("alloc.explicit_passes").value(),
            madd.counter("alloc.passes").value());
}

}  // namespace
}  // namespace echelon
