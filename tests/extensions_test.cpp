// Tests for the extension features beyond the paper's core evaluation:
// the Xpander topology, simulated link/plane failures with failure-aware
// path selection (§3.4), DCTCP/ECN (§6.5), and per-plane performance
// isolation (§7).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/harness.hpp"
#include "routing/shortest.hpp"
#include "util/stats.hpp"
#include "topo/xpander.hpp"
#include "workload/apps.hpp"
#include "workload/patterns.hpp"

namespace pnet {
namespace {

// ----------------------------------------------------------------- Xpander

class XpanderShape
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(XpanderShape, IsDRegularSimpleAndGrouped) {
  const auto [d, lift, seed] = GetParam();
  topo::XpanderConfig config;
  config.network_degree = d;
  config.lift = lift;
  config.hosts_per_switch = 2;
  config.seed = seed;
  const auto x = topo::build_xpander(config);
  EXPECT_EQ(x.num_switches(), (d + 1) * lift);
  EXPECT_EQ(x.num_hosts(), (d + 1) * lift * 2);

  // Exact d-regularity over fabric links, simplicity, and no intra-metanode
  // links (a lift of the complete graph has none).
  std::map<int, int> degree;
  std::set<std::pair<int, int>> seen;
  for (int l = 0; l < x.graph.num_links(); ++l) {
    const auto& link = x.graph.link(LinkId{l});
    if (x.graph.is_host(link.src) || x.graph.is_host(link.dst)) continue;
    EXPECT_TRUE(seen.emplace(link.src.v, link.dst.v).second);
    ++degree[link.src.v];
  }
  for (int s = 0; s < x.num_switches(); ++s) {
    EXPECT_EQ(degree[x.switch_nodes[static_cast<std::size_t>(s)].v], d);
  }
  for (const auto& [a, b] : seen) {
    int ia = -1;
    int ib = -1;
    for (int s = 0; s < x.num_switches(); ++s) {
      if (x.switch_nodes[static_cast<std::size_t>(s)].v == a) ia = s;
      if (x.switch_nodes[static_cast<std::size_t>(s)].v == b) ib = s;
    }
    EXPECT_NE(x.metanode_of_switch(ia), x.metanode_of_switch(ib));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, XpanderShape,
                         ::testing::Values(std::tuple{3, 4, 1u},
                                           std::tuple{8, 8, 2u},
                                           std::tuple{5, 10, 3u},
                                           std::tuple{8, 8, 9u}));

TEST(Xpander, ConnectedWithShortPaths) {
  topo::XpanderConfig config;
  config.network_degree = 8;
  config.lift = 8;
  const auto x = topo::build_xpander(config);
  const auto dist = routing::bfs_hops(x.graph, x.switch_nodes.front());
  int max_dist = 0;
  for (NodeId sw : x.switch_nodes) {
    const int d = dist[static_cast<std::size_t>(sw.v)];
    ASSERT_NE(d, routing::kUnreachable);
    max_dist = std::max(max_dist, d);
  }
  EXPECT_LE(max_dist, 3);  // 72 switches at degree 8: expander diameter
}

TEST(Xpander, WorksAsParallelNetworkPlanes) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kXpander;
  spec.type = topo::NetworkType::kParallelHeterogeneous;
  spec.hosts = 96;
  spec.parallelism = 4;
  const auto net = topo::build_network(spec);
  EXPECT_EQ(net.num_planes(), 4);
  EXPECT_GE(net.num_hosts(), 96);
  // Heterogeneous Xpander planes differ (different lifts).
  bool differ = false;
  for (int l = 0; l < net.plane(0).graph.num_links() && !differ; ++l) {
    differ = net.plane(0).graph.link(LinkId{l}).dst !=
             net.plane(1).graph.link(LinkId{l}).dst;
  }
  EXPECT_TRUE(differ);
  // And the heterogeneous min-hop advantage applies to Xpanders too.
  const auto paths = routing::shortest_per_plane(net, HostId{0}, HostId{90});
  ASSERT_EQ(paths.size(), 4u);
  EXPECT_LE(paths.front().hops(), paths.back().hops());
}

// ------------------------------------------------- failures + reselection

core::SimHarness make_parallel_harness(core::RoutingPolicy policy_kind,
                                       int k = 2) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  spec.hosts = 16;
  spec.parallelism = 2;
  core::PolicyConfig policy;
  policy.policy = policy_kind;
  policy.k = k;
  return core::SimHarness({.spec = spec, .policy = policy});
}

TEST(Failures, FailedQueueDropsEverything) {
  auto h = make_parallel_harness(core::RoutingPolicy::kShortestPlane);
  h.network().set_plane_failed(1, true);
  // Force a flow onto plane 1 by failing plane 0 in the selector.
  h.selector().set_plane_failed(0, true);
  h.starter()(HostId{0}, HostId{15}, 15000, 0, {});
  h.run_until(5 * units::kMillisecond);
  EXPECT_TRUE(h.logger().records().empty());  // black-holed
  EXPECT_GT(h.network().total_drops(), 0u);
}

TEST(Failures, SelectorAvoidsFailedPlane) {
  auto h = make_parallel_harness(core::RoutingPolicy::kRoundRobin);
  h.network().set_plane_failed(1, true);   // the fabric breaks...
  h.selector().set_plane_failed(1, true);  // ...and the host notices (§3.4)
  for (int i = 0; i < 8; ++i) {
    h.starter()(HostId{i}, HostId{15 - i}, 50'000, 0, {});
  }
  h.run();
  ASSERT_EQ(h.logger().records().size(), 8u);  // all complete on plane 0
  EXPECT_EQ(h.logger().total_timeouts(), 0);
}

TEST(Failures, UnawareSelectorSuffersTimeoutsAwareDoesNot) {
  auto run = [&](bool aware) {
    auto h = make_parallel_harness(core::RoutingPolicy::kRoundRobin);
    h.network().set_plane_failed(1, true);
    if (aware) h.selector().set_plane_failed(1, true);
    for (int i = 0; i < 8; ++i) {
      h.starter()(HostId{i}, HostId{15 - i}, 50'000, 0, {});
    }
    h.run_until(2 * units::kSecond);
    return h.logger().records().size();
  };
  EXPECT_EQ(run(true), 8u);
  EXPECT_LT(run(false), 8u);  // flows routed into the dead plane never finish
}

TEST(Failures, CableFailureOnlyAffectsThatCable) {
  auto h = make_parallel_harness(core::RoutingPolicy::kShortestPlane);
  // Fail one fabric cable in plane 0 (a cable degraded at loss 1); the fat
  // tree routes around nothing (source routing), but flows not using that
  // cable are untouched.
  h.network().set_cable_degraded(0, LinkId{40}, 1.0);
  h.starter()(HostId{0}, HostId{1}, 15000, 0, {});  // same rack, unaffected
  h.run();
  EXPECT_EQ(h.logger().records().size(), 1u);
}

TEST(Failures, KspSelectorFiltersFailedPlane) {
  auto h = make_parallel_harness(core::RoutingPolicy::kKspMultipath, 4);
  h.selector().set_plane_failed(0, true);
  const auto paths =
      h.selector().select(HostId{0}, HostId{15}, 1 << 20, 123);
  ASSERT_FALSE(paths.empty());
  for (const auto& p : paths) EXPECT_EQ(p.plane, 1);
}

TEST(Failures, PlaneRecoveryRestoresUse) {
  auto h = make_parallel_harness(core::RoutingPolicy::kRoundRobin);
  h.selector().set_plane_failed(1, true);
  h.selector().set_plane_failed(1, false);
  std::set<int> planes;
  for (int i = 0; i < 8; ++i) {
    const auto paths = h.selector().select(HostId{0}, HostId{15}, 1000, 1);
    ASSERT_EQ(paths.size(), 1u);
    planes.insert(paths.front().plane);
  }
  EXPECT_EQ(planes.size(), 2u);
}

// ----------------------------------------------------------------- DCTCP

core::SimHarness make_dctcp_harness(bool dctcp) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.hosts = 16;
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kShortestPlane;
  sim::SimConfig sim_config;
  sim_config.queue_buffer_bytes = 100 * 1500;
  if (dctcp) {
    sim_config.ecn_threshold_bytes = 20 * 1500;  // ~20% of the buffer
    sim_config.tcp.dctcp = true;
  }
  return core::SimHarness({.spec = spec, .policy = policy, .sim_config = sim_config});
}

TEST(Dctcp, MarksAndKeepsQueuesShort) {
  auto reno = make_dctcp_harness(false);
  auto dctcp = make_dctcp_harness(true);
  auto run = [](core::SimHarness& h) {
    // Two bulk flows into one receiver: standing queue at its downlink.
    h.starter()(HostId{0}, HostId{15}, 20'000'000, 0, {});
    h.starter()(HostId{4}, HostId{15}, 20'000'000, 0, {});
    h.run();
  };
  run(reno);
  run(dctcp);
  ASSERT_EQ(dctcp.logger().records().size(), 2u);
  EXPECT_GT(dctcp.network().total_ecn_marks(), 0u);
  EXPECT_EQ(reno.network().total_ecn_marks(), 0u);
  // DCTCP's point: congestion control without drops.
  EXPECT_LT(dctcp.network().total_drops(), reno.network().total_drops());
  EXPECT_EQ(dctcp.logger().total_retransmits(), 0);
}

TEST(Dctcp, ThroughputComparableToReno) {
  auto run = [](bool dctcp_on) {
    auto h = make_dctcp_harness(dctcp_on);
    h.starter()(HostId{0}, HostId{15}, 20'000'000, 0, {});
    h.run();
    return h.logger().fct_us().front();
  };
  const double reno = run(false);
  const double dctcp = run(true);
  EXPECT_LT(dctcp, 1.3 * reno);  // no throughput collapse from marking
}

TEST(Dctcp, IncastTailBeatsReno) {
  // 8-to-1 incast of 200 kB each into shallow buffers: DCTCP should avoid
  // the RTO tail NewReno hits (paper §6.5's motivation).
  auto run = [](bool dctcp_on) {
    auto h = make_dctcp_harness(dctcp_on);
    std::vector<double> fct;
    for (int i = 0; i < 8; ++i) {
      h.starter()(HostId{i}, HostId{15}, 200'000, 0, {});
    }
    h.run_until(units::kSecond);
    return std::pair{h.logger().records().size(),
                     h.logger().total_timeouts()};
  };
  const auto [reno_done, reno_rto] = run(false);
  const auto [dctcp_done, dctcp_rto] = run(true);
  EXPECT_EQ(dctcp_done, 8u);
  EXPECT_LE(dctcp_rto, reno_rto);
}

// ------------------------------------------------------------- isolation

TEST(Isolation, AllowedPlanesRestrictSelection) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  spec.hosts = 16;
  spec.parallelism = 4;
  const auto net = topo::build_network(spec);

  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kRoundRobin;
  policy.allowed_planes = {1, 3};
  core::PathSelector selector(net, policy);
  std::set<int> used;
  for (int i = 0; i < 12; ++i) {
    const auto paths = selector.select(HostId{0}, HostId{15}, 1000, 5);
    ASSERT_EQ(paths.size(), 1u);
    used.insert(paths.front().plane);
  }
  EXPECT_EQ(used, (std::set<int>{1, 3}));
}

TEST(Isolation, TenantsOnDisjointPlanesDoNotInterfere) {
  // Tenant A (latency RPCs, plane 0) vs tenant B (bulk elephants, planes
  // 1-3) on one 4-plane P-Net: B's load must not move A's completion times.
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  spec.hosts = 16;
  spec.parallelism = 4;

  auto run = [&](bool with_bulk) {
    core::PolicyConfig policy_a;
    policy_a.policy = core::RoutingPolicy::kRoundRobin;
    policy_a.allowed_planes = {0};
    core::SimHarness h({.spec = spec, .policy = policy_a});

    core::PolicyConfig policy_b;
    policy_b.policy = core::RoutingPolicy::kRoundRobin;
    policy_b.allowed_planes = {1, 2, 3};
    core::PathSelector selector_b(h.net(), policy_b);
    auto starter_b = selector_b.make_starter(h.factory());
    if (with_bulk) {
      for (int i = 0; i < 8; ++i) {
        starter_b(HostId{i}, HostId{15 - i}, 20'000'000, 0, {});
      }
    }
    std::vector<double> rpc_fct;
    workload::ClosedLoopApp::Config config;
    config.rounds_per_worker = 20;
    workload::ClosedLoopApp app(
        h.starter(), {HostId{0}, HostId{5}}, config,
        [](HostId src, Rng&) { return HostId{src.v == 0 ? 10 : 12}; },
        [](Rng&) { return std::uint64_t{20'000}; });
    app.start(0);
    h.run();
    auto v = app.completion_times_us();
    return percentile(v, 99);
  };

  const double quiet = run(false);
  const double busy = run(true);
  EXPECT_NEAR(busy, quiet, 0.05 * quiet);  // strict isolation
}

}  // namespace
}  // namespace pnet
