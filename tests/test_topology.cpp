// Unit tests for src/topology: graph construction, routing, route table,
// builders.

#include <gtest/gtest.h>

#include "common/units.hpp"
#include "topology/builders.hpp"
#include "topology/graph.hpp"
#include "topology/route_table.hpp"

namespace echelon::topology {
namespace {

TEST(Graph, AddNodesAndLinks) {
  Topology t;
  const NodeId a = t.add_host("a");
  const NodeId b = t.add_host("b");
  const NodeId s = t.add_switch("s", 1);
  EXPECT_EQ(t.node_count(), 3u);
  EXPECT_TRUE(is_host(t.node(a)));
  EXPECT_FALSE(is_host(t.node(s)));
  EXPECT_EQ(t.node(s).tier, 1);

  const auto [up, down] = t.add_duplex(a, b, 5.0);
  EXPECT_EQ(t.link_count(), 2u);
  EXPECT_EQ(t.link(up).src, a);
  EXPECT_EQ(t.link(up).dst, b);
  EXPECT_EQ(t.link(down).src, b);
  EXPECT_DOUBLE_EQ(t.link(up).capacity, 5.0);
}

TEST(Graph, RouteDirectLink) {
  Topology t;
  const NodeId a = t.add_host("a");
  const NodeId b = t.add_host("b");
  const LinkId l = t.add_link(a, b, 1.0);
  const auto path = t.route(a, b);
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->size(), 1u);
  EXPECT_EQ((*path)[0], l);
}

TEST(Graph, RouteSelfIsEmpty) {
  Topology t;
  const NodeId a = t.add_host("a");
  const auto path = t.route(a, a);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(path->empty());
}

TEST(Graph, RouteUnreachableIsNullopt) {
  Topology t;
  const NodeId a = t.add_host("a");
  const NodeId b = t.add_host("b");
  EXPECT_FALSE(t.route(a, b).has_value());
  // One-directional link: reachable one way only.
  t.add_link(a, b, 1.0);
  EXPECT_TRUE(t.route(a, b).has_value());
  EXPECT_FALSE(t.route(b, a).has_value());
}

TEST(Graph, RouteTakesShortestPath) {
  // a -> s1 -> b (2 hops) and a -> s2 -> s3 -> b (3 hops).
  Topology t;
  const NodeId a = t.add_host("a");
  const NodeId b = t.add_host("b");
  const NodeId s1 = t.add_switch("s1");
  const NodeId s2 = t.add_switch("s2");
  const NodeId s3 = t.add_switch("s3");
  t.add_duplex(a, s1, 1.0);
  t.add_duplex(s1, b, 1.0);
  t.add_duplex(a, s2, 1.0);
  t.add_duplex(s2, s3, 1.0);
  t.add_duplex(s3, b, 1.0);
  const auto path = t.route(a, b);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 2u);
}

TEST(Graph, EcmpIsDeterministicPerSeed) {
  // Two equal-cost 2-hop paths a -> {s1,s2} -> b.
  Topology t;
  const NodeId a = t.add_host("a");
  const NodeId b = t.add_host("b");
  const NodeId s1 = t.add_switch("s1");
  const NodeId s2 = t.add_switch("s2");
  t.add_duplex(a, s1, 1.0);
  t.add_duplex(s1, b, 1.0);
  t.add_duplex(a, s2, 1.0);
  t.add_duplex(s2, b, 1.0);

  const auto p1 = t.route(a, b, 42);
  const auto p2 = t.route(a, b, 42);
  ASSERT_TRUE(p1 && p2);
  EXPECT_EQ(*p1, *p2);

  // Across many seeds, both paths should be exercised.
  bool used_s1 = false;
  bool used_s2 = false;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const auto p = t.route(a, b, seed);
    ASSERT_TRUE(p);
    const NodeId mid = t.link((*p)[0]).dst;
    used_s1 |= mid == s1;
    used_s2 |= mid == s2;
  }
  EXPECT_TRUE(used_s1);
  EXPECT_TRUE(used_s2);
}

TEST(Graph, CloneWithCapacityPreservesStructure) {
  Topology t;
  const NodeId a = t.add_host("a");
  const NodeId b = t.add_host("b");
  t.add_duplex(a, b, 7.0);
  const Topology fast = t.clone_with_capacity(1e30);
  EXPECT_EQ(fast.node_count(), t.node_count());
  EXPECT_EQ(fast.link_count(), t.link_count());
  EXPECT_DOUBLE_EQ(fast.link(LinkId{0}).capacity, 1e30);
  EXPECT_DOUBLE_EQ(t.link(LinkId{0}).capacity, 7.0);  // original untouched
}

// Adding a node or link changes what routes exist, so it bumps the capacity
// epoch like any runtime change: a RouteTable that routed a -> b over three
// hops must route the new direct link afterwards, as Topology::route does,
// whether the old answer came from its distance array or its memo.
TEST(RouteTable, AddedLinkReplacesCachedLongerRoute) {
  Topology t;
  const NodeId a = t.add_host("a");
  const NodeId x = t.add_switch("x");
  const NodeId y = t.add_switch("y");
  const NodeId b = t.add_host("b");
  t.add_link(a, x, 1.0);
  t.add_link(x, y, 1.0);
  t.add_link(y, b, 1.0);
  RouteTable table(&t);
  const auto before = table.route(a, b, 0);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(table.path(*before).size(), 3u);
  EXPECT_EQ(table.route(a, b, 0), before);  // a memo hit

  std::uint64_t epoch = t.capacity_epoch();
  const LinkId direct = t.add_link(a, b, 1.0);
  EXPECT_GT(t.capacity_epoch(), epoch);
  const auto after = table.route(a, b, 0);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(table.path(*after), Path{direct});
  EXPECT_EQ(table.path(*after), *t.route(a, b, 0));
  EXPECT_EQ(table.stats().computations, 2u);

  epoch = t.capacity_epoch();
  (void)t.add_host("c");
  (void)t.add_switch("z");
  EXPECT_EQ(t.capacity_epoch(), epoch + 2);
  EXPECT_EQ(table.route(a, b, 0), after);
  EXPECT_EQ(table.stats().computations, 3u);
  EXPECT_EQ(table.stats().hits + table.stats().computations,
            table.stats().lookups);
}

TEST(Builders, BigSwitchShape) {
  const BuiltFabric f = make_big_switch(8, gbps(100));
  EXPECT_EQ(f.hosts.size(), 8u);
  EXPECT_EQ(f.topo.node_count(), 9u);   // 8 hosts + 1 crossbar
  EXPECT_EQ(f.topo.link_count(), 16u);  // duplex per host
  // Any host pair routes through exactly 2 links (egress + ingress).
  const auto path = f.topo.route(f.hosts[0], f.hosts[7]);
  ASSERT_TRUE(path);
  EXPECT_EQ(path->size(), 2u);
}

TEST(Builders, BigSwitchHostsAreHosts) {
  const BuiltFabric f = make_big_switch(3, 1.0);
  for (const NodeId h : f.hosts) EXPECT_TRUE(is_host(f.topo.node(h)));
  EXPECT_EQ(f.topo.hosts().size(), 3u);
}

TEST(Builders, LeafSpineShape) {
  const BuiltFabric f = make_leaf_spine({.leaves = 4,
                                         .spines = 2,
                                         .hosts_per_leaf = 8,
                                         .host_link = gbps(100),
                                         .uplink = gbps(400)});
  EXPECT_EQ(f.hosts.size(), 32u);
  // 2 spines + 4 leaves + 32 hosts.
  EXPECT_EQ(f.topo.node_count(), 38u);
  // Cross-leaf path: host -> leaf -> spine -> leaf -> host = 4 links.
  const auto path = f.topo.route(f.hosts[0], f.hosts[31]);
  ASSERT_TRUE(path);
  EXPECT_EQ(path->size(), 4u);
  // Same-leaf path: host -> leaf -> host = 2 links.
  const auto same = f.topo.route(f.hosts[0], f.hosts[1]);
  ASSERT_TRUE(same);
  EXPECT_EQ(same->size(), 2u);
}

TEST(Builders, FatTreeShape) {
  const int k = 4;
  const BuiltFabric f = make_fat_tree(k, gbps(40));
  EXPECT_EQ(f.hosts.size(), static_cast<std::size_t>(k * k * k / 4));  // 16
  // (k/2)^2 core + k pods * (k/2 agg + k/2 edge) + hosts.
  EXPECT_EQ(f.topo.node_count(), 4u + 4u * 4u + 16u);
  // Hosts in different pods: 6 hops (h-e-a-c-a-e-h).
  const auto cross = f.topo.route(f.hosts[0], f.hosts[15]);
  ASSERT_TRUE(cross);
  EXPECT_EQ(cross->size(), 6u);
  // Same edge switch: 2 hops.
  const auto local = f.topo.route(f.hosts[0], f.hosts[1]);
  ASSERT_TRUE(local);
  EXPECT_EQ(local->size(), 2u);
}

TEST(Builders, FatTreeAllPairsReachable) {
  const BuiltFabric f = make_fat_tree(4, 1.0);
  for (std::size_t i = 0; i < f.hosts.size(); i += 5) {
    for (std::size_t j = 0; j < f.hosts.size(); j += 3) {
      EXPECT_TRUE(f.topo.route(f.hosts[i], f.hosts[j]).has_value());
    }
  }
}

}  // namespace
}  // namespace echelon::topology
