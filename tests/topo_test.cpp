// Tests for the topology substrate: Graph invariants, fat tree structure,
// Jellyfish regularity, and ParallelNetwork construction semantics.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "topo/fat_tree.hpp"
#include "topo/graph.hpp"
#include "topo/jellyfish.hpp"
#include "topo/parallel.hpp"

namespace pnet::topo {
namespace {

TEST(Graph, DuplexLinksPairUp) {
  Graph g;
  const NodeId a = g.add_node(NodeKind::kSwitch);
  const NodeId b = g.add_node(NodeKind::kSwitch);
  const LinkId fwd = g.add_duplex_link(a, b, 100e9, 5);
  const LinkId rev = g.reverse(fwd);
  EXPECT_EQ(g.link(fwd).src, a);
  EXPECT_EQ(g.link(fwd).dst, b);
  EXPECT_EQ(g.link(rev).src, b);
  EXPECT_EQ(g.link(rev).dst, a);
  EXPECT_EQ(g.reverse(rev), fwd);
  EXPECT_EQ(g.num_links(), 2);
  EXPECT_EQ(g.num_cables(), 1);
}

TEST(Graph, AdjacencyTracksOutLinks) {
  Graph g;
  const NodeId a = g.add_node(NodeKind::kSwitch);
  const NodeId b = g.add_node(NodeKind::kSwitch);
  const NodeId c = g.add_node(NodeKind::kSwitch);
  g.add_duplex_link(a, b, 1, 1);
  g.add_duplex_link(a, c, 1, 1);
  EXPECT_EQ(g.out_links(a).size(), 2u);
  EXPECT_EQ(g.out_links(b).size(), 1u);
  EXPECT_EQ(g.out_links(c).size(), 1u);
}

TEST(Graph, HostNodesCarryHostIds) {
  Graph g;
  const NodeId h = g.add_node(NodeKind::kHost, HostId{17});
  EXPECT_TRUE(g.is_host(h));
  EXPECT_EQ(g.node(h).host, HostId{17});
  EXPECT_EQ(g.hosts().size(), 1u);
  EXPECT_EQ(g.switches().size(), 0u);
}

class FatTreeStructure : public ::testing::TestWithParam<int> {};

TEST_P(FatTreeStructure, CountsMatchFormulas) {
  const int k = GetParam();
  FatTreeConfig config;
  config.k = k;
  const FatTree ft = build_fat_tree(config);
  EXPECT_EQ(ft.num_hosts(), k * k * k / 4);
  EXPECT_EQ(static_cast<int>(ft.edge_switches.size()), k * k / 2);
  EXPECT_EQ(static_cast<int>(ft.agg_switches.size()), k * k / 2);
  EXPECT_EQ(static_cast<int>(ft.core_switches.size()), k * k / 4);
  // Cables: hosts + edge-agg mesh + agg-core. Each is k^3/4.
  EXPECT_EQ(ft.graph.num_cables(), 3 * k * k * k / 4);
}

TEST_P(FatTreeStructure, SwitchRadixIsK) {
  const int k = GetParam();
  FatTreeConfig config;
  config.k = k;
  const FatTree ft = build_fat_tree(config);
  const Graph& g = ft.graph;
  for (NodeId sw : ft.edge_switches) {
    EXPECT_EQ(static_cast<int>(g.out_links(sw).size()), k);
  }
  for (NodeId sw : ft.agg_switches) {
    EXPECT_EQ(static_cast<int>(g.out_links(sw).size()), k);
  }
  for (NodeId sw : ft.core_switches) {
    EXPECT_EQ(static_cast<int>(g.out_links(sw).size()), k);
  }
  for (NodeId h : ft.host_nodes) {
    EXPECT_EQ(g.out_links(h).size(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Radices, FatTreeStructure,
                         ::testing::Values(4, 6, 8, 16));

TEST(FatTree, RejectsOddRadix) {
  FatTreeConfig config;
  config.k = 5;
  EXPECT_THROW(build_fat_tree(config), std::invalid_argument);
}

TEST(FatTree, RackAndPodMapping) {
  FatTreeConfig config;
  config.k = 4;
  const FatTree ft = build_fat_tree(config);
  // k=4: 16 hosts, 2 hosts per rack, 4 hosts per pod.
  EXPECT_EQ(ft.rack_of_host(0), 0);
  EXPECT_EQ(ft.rack_of_host(1), 0);
  EXPECT_EQ(ft.rack_of_host(2), 1);
  EXPECT_EQ(ft.pod_of_host(3), 0);
  EXPECT_EQ(ft.pod_of_host(4), 1);
}

TEST(FatTree, KForHosts) {
  EXPECT_EQ(fat_tree_k_for_hosts(16), 4);
  EXPECT_EQ(fat_tree_k_for_hosts(17), 6);
  EXPECT_EQ(fat_tree_k_for_hosts(128), 8);
  EXPECT_EQ(fat_tree_k_for_hosts(1024), 16);
}

class JellyfishRegularity
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(JellyfishRegularity, IsSimpleAndNearRegular) {
  const auto [n, r, seed] = GetParam();
  JellyfishConfig config;
  config.num_switches = n;
  config.network_degree = r;
  config.hosts_per_switch = 3;
  config.seed = seed;
  const Jellyfish jf = build_jellyfish(config);
  const Graph& g = jf.graph;

  // Count switch-to-switch degrees and check simplicity (no multi-edges,
  // no self-loops).
  std::map<int, int> degree;
  std::set<std::pair<int, int>> seen;
  for (int l = 0; l < g.num_links(); ++l) {
    const Link& link = g.link(LinkId{l});
    if (g.is_host(link.src) || g.is_host(link.dst)) continue;
    EXPECT_NE(link.src, link.dst);
    EXPECT_TRUE(seen.emplace(link.src.v, link.dst.v).second)
        << "duplicate switch link";
    ++degree[link.src.v];
  }
  int total_degree = 0;
  for (NodeId sw : jf.switch_nodes) {
    const int d = degree[sw.v];
    EXPECT_LE(d, r);
    total_degree += d;
  }
  // The construction may leave at most one port unwired overall.
  EXPECT_GE(total_degree, n * r - 2);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JellyfishRegularity,
    ::testing::Values(std::tuple{10, 3, 1u}, std::tuple{20, 5, 2u},
                      std::tuple{98, 7, 3u}, std::tuple{64, 8, 4u},
                      std::tuple{128, 11, 5u}));

TEST(Jellyfish, DifferentSeedsGiveDifferentGraphs) {
  JellyfishConfig a;
  a.num_switches = 30;
  a.network_degree = 5;
  a.seed = 1;
  JellyfishConfig b = a;
  b.seed = 2;
  const Jellyfish ja = build_jellyfish(a);
  const Jellyfish jb = build_jellyfish(b);

  auto edge_set = [](const Jellyfish& jf) {
    std::set<std::pair<int, int>> edges;
    for (int l = 0; l < jf.graph.num_links(); ++l) {
      const Link& link = jf.graph.link(LinkId{l});
      if (jf.graph.is_host(link.src) || jf.graph.is_host(link.dst)) continue;
      edges.emplace(link.src.v, link.dst.v);
    }
    return edges;
  };
  EXPECT_NE(edge_set(ja), edge_set(jb));
}

TEST(Jellyfish, SameSeedIsDeterministic) {
  JellyfishConfig config;
  config.num_switches = 30;
  config.network_degree = 5;
  config.seed = 9;
  const Jellyfish a = build_jellyfish(config);
  const Jellyfish b = build_jellyfish(config);
  ASSERT_EQ(a.graph.num_links(), b.graph.num_links());
  for (int l = 0; l < a.graph.num_links(); ++l) {
    EXPECT_EQ(a.graph.link(LinkId{l}).src, b.graph.link(LinkId{l}).src);
    EXPECT_EQ(a.graph.link(LinkId{l}).dst, b.graph.link(LinkId{l}).dst);
  }
}

TEST(Jellyfish, RejectsImpossibleShapes) {
  JellyfishConfig config;
  config.num_switches = 5;
  config.network_degree = 5;  // r >= n
  EXPECT_THROW(build_jellyfish(config), std::invalid_argument);
  config.num_switches = 5;
  config.network_degree = 3;  // n*r odd
  EXPECT_THROW(build_jellyfish(config), std::invalid_argument);
}

TEST(ParallelNetwork, SerialTypesHaveOnePlane) {
  NetworkSpec spec;
  spec.topo = TopoKind::kFatTree;
  spec.hosts = 16;
  spec.parallelism = 4;

  spec.type = NetworkType::kSerialLow;
  const auto low = build_network(spec);
  EXPECT_EQ(low.num_planes(), 1);
  EXPECT_DOUBLE_EQ(low.plane(0).link_rate_bps, 100e9);
  EXPECT_EQ(low.parallelism(), 4);

  spec.type = NetworkType::kSerialHigh;
  const auto high = build_network(spec);
  EXPECT_EQ(high.num_planes(), 1);
  EXPECT_DOUBLE_EQ(high.plane(0).link_rate_bps, 400e9);
}

TEST(ParallelNetwork, ParallelTypesHaveNPlanes) {
  NetworkSpec spec;
  spec.topo = TopoKind::kJellyfish;
  spec.hosts = 63;
  spec.parallelism = 4;
  spec.type = NetworkType::kParallelHomogeneous;
  const auto hom = build_network(spec);
  EXPECT_EQ(hom.num_planes(), 4);
  EXPECT_DOUBLE_EQ(hom.host_uplink_bps(), 400e9);
  EXPECT_EQ(hom.num_hosts(), hom.plane(0).host_nodes.size() > 0
                                 ? static_cast<int>(hom.plane(0).host_nodes.size())
                                 : 0);
}

TEST(ParallelNetwork, PlaneCountsMatchTheBuiltNetwork) {
  // num_planes and plane_nodes size a spec before it is built (pnet-serve's
  // topology cap); they must agree with build_network for every kind.
  struct Case {
    TopoKind topo;
    NetworkType type;
    int hosts;
    int jf_switches;
  };
  const Case cases[] = {
      {TopoKind::kFatTree, NetworkType::kParallelHomogeneous, 2, 0},
      {TopoKind::kFatTree, NetworkType::kSerialHigh, 100, 0},
      {TopoKind::kJellyfish, NetworkType::kParallelHeterogeneous, 7, 0},
      {TopoKind::kJellyfish, NetworkType::kParallelHomogeneous, 63, 0},
      {TopoKind::kJellyfish, NetworkType::kSerialLow, 32, 16},
      {TopoKind::kXpander, NetworkType::kParallelHomogeneous, 5, 0},
      {TopoKind::kXpander, NetworkType::kSerialLow, 128, 0},
  };
  for (const Case& c : cases) {
    NetworkSpec spec;
    spec.topo = c.topo;
    spec.type = c.type;
    spec.hosts = c.hosts;
    spec.parallelism = 3;
    if (c.jf_switches > 0) {
      spec.jf_switches = c.jf_switches;
      spec.jf_degree = 4;
      spec.jf_hosts_per_switch = 2;
    }
    const auto net = build_network(spec);
    EXPECT_EQ(num_planes(spec), net.num_planes()) << to_string(c.topo);
    for (int p = 0; p < net.num_planes(); ++p) {
      EXPECT_EQ(plane_nodes(spec), net.plane(p).graph.num_nodes())
          << to_string(c.topo) << " hosts " << c.hosts;
    }
  }
}

TEST(ParallelNetwork, HomogeneousPlanesAreIdentical) {
  NetworkSpec spec;
  spec.topo = TopoKind::kJellyfish;
  spec.hosts = 63;
  spec.parallelism = 3;
  spec.type = NetworkType::kParallelHomogeneous;
  const auto net = build_network(spec);
  for (int p = 1; p < net.num_planes(); ++p) {
    ASSERT_EQ(net.plane(p).graph.num_links(), net.plane(0).graph.num_links());
    for (int l = 0; l < net.plane(0).graph.num_links(); ++l) {
      EXPECT_EQ(net.plane(p).graph.link(LinkId{l}).src,
                net.plane(0).graph.link(LinkId{l}).src);
      EXPECT_EQ(net.plane(p).graph.link(LinkId{l}).dst,
                net.plane(0).graph.link(LinkId{l}).dst);
    }
  }
}

TEST(ParallelNetwork, HeterogeneousPlanesDiffer) {
  NetworkSpec spec;
  spec.topo = TopoKind::kJellyfish;
  spec.hosts = 63;
  spec.parallelism = 3;
  spec.type = NetworkType::kParallelHeterogeneous;
  const auto net = build_network(spec);
  bool any_difference = false;
  for (int p = 1; p < net.num_planes() && !any_difference; ++p) {
    if (net.plane(p).graph.num_links() != net.plane(0).graph.num_links()) {
      any_difference = true;
      break;
    }
    for (int l = 0; l < net.plane(0).graph.num_links(); ++l) {
      if (net.plane(p).graph.link(LinkId{l}).src !=
              net.plane(0).graph.link(LinkId{l}).src ||
          net.plane(p).graph.link(LinkId{l}).dst !=
              net.plane(0).graph.link(LinkId{l}).dst) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(ParallelNetwork, HostNodeLookupConsistent) {
  NetworkSpec spec;
  spec.topo = TopoKind::kFatTree;
  spec.hosts = 16;
  spec.parallelism = 2;
  spec.type = NetworkType::kParallelHomogeneous;
  const auto net = build_network(spec);
  for (int p = 0; p < net.num_planes(); ++p) {
    for (int h = 0; h < net.num_hosts(); ++h) {
      const NodeId node = net.host_node(p, HostId{h});
      EXPECT_TRUE(net.plane(p).graph.is_host(node));
      EXPECT_EQ(net.plane(p).graph.node(node).host, HostId{h});
    }
  }
}

TEST(ParallelNetwork, RackMapping) {
  NetworkSpec spec;
  spec.topo = TopoKind::kFatTree;
  spec.hosts = 16;  // k=4 -> 2 hosts per rack
  const auto net = build_network(spec);
  EXPECT_EQ(net.hosts_per_rack(), 2);
  EXPECT_EQ(net.num_racks(), 8);
  EXPECT_EQ(net.rack_of_host(HostId{0}), 0);
  EXPECT_EQ(net.rack_of_host(HostId{3}), 1);
}

TEST(ParallelNetwork, TypeNames) {
  EXPECT_EQ(to_string(NetworkType::kSerialLow), "serial-low-bw");
  EXPECT_EQ(to_string(NetworkType::kParallelHeterogeneous),
            "parallel-heterogeneous");
  EXPECT_EQ(to_string(TopoKind::kJellyfish), "jellyfish");
}

}  // namespace
}  // namespace pnet::topo
