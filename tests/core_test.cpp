// Tests for the core P-Net library: the Table 1 cost model (exact paper
// numbers), every path-selection policy, and the harness facade.
#include <gtest/gtest.h>

#include <set>

#include "core/cost_model.hpp"
#include "core/harness.hpp"
#include "core/path_selector.hpp"

namespace pnet::core {
namespace {

// ------------------------------------------------------------ cost model

TEST(CostModel, Table1SerialScaleOutRow) {
  // "Serial (scale-out): 4 tiers, 7 hops, 3,584 chips, 3,584 boxes, 24.6k
  // links" for 8,192 hosts of 16-port chips.
  const auto c = serial_scale_out(8192, 16);
  EXPECT_EQ(c.tiers, 4);
  EXPECT_EQ(c.hops, 7);
  EXPECT_EQ(c.chips, 3584);
  EXPECT_EQ(c.boxes, 3584);
  EXPECT_EQ(c.links, 24576);  // 24.6k
}

TEST(CostModel, Table1SerialChassisRow) {
  // "Serial chassis: 2 tiers, 7 hops, 3,584 chips, 192 boxes, 8.2k links".
  const auto c = serial_chassis(8192, 16, 128);
  EXPECT_EQ(c.tiers, 2);
  EXPECT_EQ(c.hops, 7);
  EXPECT_EQ(c.chips, 3584);
  EXPECT_EQ(c.boxes, 192);
  EXPECT_EQ(c.links, 8192);  // 8.2k
}

TEST(CostModel, Table1ParallelRow) {
  // "Parallel 8x: 2 tiers, 3 hops, 1,536 chips, 192 boxes, 8.2k links".
  const auto c = parallel_pnet(8192, 16, 8);
  EXPECT_EQ(c.tiers, 2);
  EXPECT_EQ(c.hops, 3);
  EXPECT_EQ(c.chips, 1536);
  EXPECT_EQ(c.boxes, 192);
  EXPECT_EQ(c.links, 8192);
}

TEST(CostModel, ParallelWithoutDeploymentOptimizations) {
  // Without bundling/shared boxes the naive parallel deployment pays N x
  // the cables and boxes (§6.1's motivation).
  const auto c = parallel_pnet(8192, 16, 8, /*bundle=*/false,
                               /*shared_boxes=*/false);
  EXPECT_EQ(c.links, 8 * 8192);
  EXPECT_EQ(c.boxes, 1536);
}

TEST(CostModel, ScaleOutGrowsTiersWithHosts) {
  EXPECT_EQ(serial_scale_out(128, 16).tiers, 2);
  EXPECT_EQ(serial_scale_out(1024, 16).tiers, 3);
  EXPECT_EQ(serial_scale_out(8192, 16).tiers, 4);
  EXPECT_EQ(serial_scale_out(8193, 16).tiers, 5);
}

TEST(CostModel, RejectsInvalidShapes) {
  EXPECT_THROW(serial_scale_out(128, 15), std::invalid_argument);
  EXPECT_THROW(serial_chassis(1 << 20, 16, 128), std::invalid_argument);
  EXPECT_THROW(parallel_pnet(1 << 30, 16, 2), std::invalid_argument);
}

// --------------------------------------------------------- path selection

topo::ParallelNetwork make_net(topo::NetworkType type, int planes,
                               topo::TopoKind kind = topo::TopoKind::kFatTree,
                               int hosts = 16) {
  topo::NetworkSpec spec;
  spec.topo = kind;
  spec.hosts = hosts;
  spec.parallelism = planes;
  spec.type = type;
  return topo::build_network(spec);
}

TEST(PathSelectorTest, EcmpSticksToOnePathPerFlow) {
  const auto net = make_net(topo::NetworkType::kParallelHomogeneous, 4);
  PolicyConfig config;
  config.policy = RoutingPolicy::kEcmp;
  PathSelector selector(net, config);
  const auto a = selector.select(HostId{0}, HostId{15}, 1000, 42);
  const auto b = selector.select(HostId{0}, HostId{15}, 1000, 42);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a, b);  // same flow key -> same path
}

TEST(PathSelectorTest, EcmpSpreadsAcrossPlanesStatistically) {
  const auto net = make_net(topo::NetworkType::kParallelHomogeneous, 4);
  PolicyConfig config;
  config.policy = RoutingPolicy::kEcmp;
  PathSelector selector(net, config);
  std::vector<int> per_plane(4, 0);
  for (std::uint64_t key = 0; key < 400; ++key) {
    const auto paths = selector.select(HostId{0}, HostId{15}, 1000, key);
    ASSERT_EQ(paths.size(), 1u);
    ++per_plane[static_cast<std::size_t>(paths.front().plane)];
  }
  for (int count : per_plane) EXPECT_NEAR(count, 100, 40);
}

TEST(PathSelectorTest, RoundRobinCyclesPlanesPerSource) {
  const auto net = make_net(topo::NetworkType::kParallelHomogeneous, 4);
  PolicyConfig config;
  config.policy = RoutingPolicy::kRoundRobin;
  PathSelector selector(net, config);
  std::vector<int> planes;
  for (int i = 0; i < 8; ++i) {
    const auto paths = selector.select(HostId{0}, HostId{15}, 1000, 0);
    ASSERT_EQ(paths.size(), 1u);
    planes.push_back(paths.front().plane);
  }
  // A rotation over all 4 planes with some per-host phase, repeated twice.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(planes[static_cast<std::size_t>(i)],
              planes[static_cast<std::size_t>(i + 4)]);
    EXPECT_EQ((planes[0] + i) % 4, planes[static_cast<std::size_t>(i)]);
  }
}

TEST(PathSelectorTest, RoundRobinPhasesDifferAcrossSources) {
  // Hosts start their rotation at different planes so synchronized flow
  // creation (e.g. a shuffle) does not concentrate on one plane.
  const auto net = make_net(topo::NetworkType::kParallelHomogeneous, 4);
  PolicyConfig config;
  config.policy = RoutingPolicy::kRoundRobin;
  PathSelector selector(net, config);
  std::set<int> first_planes;
  for (int src = 0; src < 8; ++src) {
    const auto paths =
        selector.select(HostId{src}, HostId{15 - src}, 1000, 0);
    ASSERT_EQ(paths.size(), 1u);
    first_planes.insert(paths.front().plane);
  }
  EXPECT_GE(first_planes.size(), 3u);
}

TEST(PathSelectorTest, ShortestPlanePicksGlobalMinimumHops) {
  const auto net = make_net(topo::NetworkType::kParallelHeterogeneous, 4,
                            topo::TopoKind::kJellyfish, 98);
  PolicyConfig config;
  config.policy = RoutingPolicy::kShortestPlane;
  PathSelector selector(net, config);
  for (int dst = 50; dst < 70; ++dst) {
    const auto chosen = selector.select(HostId{0}, HostId{dst}, 1000, 0);
    ASSERT_EQ(chosen.size(), 1u);
    const auto per_plane =
        routing::shortest_per_plane(net, HostId{0}, HostId{dst});
    for (const auto& alternative : per_plane) {
      EXPECT_LE(chosen.front().hops(), alternative.hops());
    }
  }
}

TEST(PathSelectorTest, KspMultipathReturnsKDistinctPaths) {
  const auto net = make_net(topo::NetworkType::kParallelHomogeneous, 2);
  PolicyConfig config;
  config.policy = RoutingPolicy::kKspMultipath;
  config.k = 8;
  PathSelector selector(net, config);
  const auto paths = selector.select(HostId{0}, HostId{15}, 1 << 30, 0);
  ASSERT_EQ(paths.size(), 8u);
  std::set<std::pair<int, std::vector<std::int32_t>>> distinct;
  for (const auto& p : paths) {
    std::vector<std::int32_t> ids;
    for (auto l : p.links) ids.push_back(l.v);
    EXPECT_TRUE(distinct.insert({p.plane, ids}).second);
  }
}

TEST(PathSelectorTest, SizeThresholdSwitchesTransport) {
  const auto net = make_net(topo::NetworkType::kParallelHomogeneous, 2);
  PolicyConfig config;
  config.policy = RoutingPolicy::kSizeThreshold;
  config.k = 4;
  config.multipath_cutoff_bytes = 100'000'000;
  PathSelector selector(net, config);
  // 100 MB (the paper's small/large boundary) stays single-path...
  EXPECT_EQ(selector.select(HostId{0}, HostId{15}, 100'000'000, 0).size(),
            1u);
  // ...1 GB goes multipath (§5.1.2's recommendation).
  EXPECT_EQ(selector.select(HostId{0}, HostId{15}, 1'000'000'000, 0).size(),
            4u);
}

TEST(PathSelectorTest, SerialNetworkAlwaysPlaneZero) {
  const auto net = make_net(topo::NetworkType::kSerialLow, 4);
  for (auto policy : {RoutingPolicy::kEcmp, RoutingPolicy::kRoundRobin,
                      RoutingPolicy::kShortestPlane}) {
    PolicyConfig config;
    config.policy = policy;
    PathSelector selector(net, config);
    for (std::uint64_t key = 0; key < 16; ++key) {
      const auto paths = selector.select(HostId{0}, HostId{15}, 1000, key);
      ASSERT_EQ(paths.size(), 1u) << to_string(policy);
      EXPECT_EQ(paths.front().plane, 0);
    }
  }
}

TEST(PathSelectorTest, PlaneFailureAfterPairCachedIsRespected) {
  // Regression: warm the per-pair cache FIRST, then fail a plane. select()
  // must stop returning paths through the failed plane even though the
  // pair's candidate sets were cached while it was healthy.
  const auto net = make_net(topo::NetworkType::kParallelHomogeneous, 4);
  for (RoutingPolicy policy :
       {RoutingPolicy::kEcmp, RoutingPolicy::kRoundRobin,
        RoutingPolicy::kShortestPlane, RoutingPolicy::kKspMultipath}) {
    PolicyConfig config;
    config.policy = policy;
    config.k = 8;
    PathSelector selector(net, config);

    bool plane2_used_before = false;
    for (std::uint64_t key = 0; key < 64; ++key) {
      for (const auto& p :
           selector.select(HostId{0}, HostId{15}, 1'000'000'000, key)) {
        plane2_used_before |= p.plane == 2;
      }
    }
    ASSERT_TRUE(plane2_used_before) << to_string(policy);

    selector.set_plane_failed(2, true);
    for (std::uint64_t key = 0; key < 64; ++key) {
      const auto paths =
          selector.select(HostId{0}, HostId{15}, 1'000'000'000, key);
      ASSERT_FALSE(paths.empty()) << to_string(policy);
      for (const auto& p : paths) {
        EXPECT_NE(p.plane, 2) << to_string(policy);
      }
    }

    selector.set_plane_failed(2, false);
    bool plane2_used_after = false;
    for (std::uint64_t key = 0; key < 64; ++key) {
      for (const auto& p :
           selector.select(HostId{0}, HostId{15}, 1'000'000'000, key)) {
        plane2_used_after |= p.plane == 2;
      }
    }
    EXPECT_TRUE(plane2_used_after) << to_string(policy);
  }
}

TEST(PathSelectorTest, SharedCacheGivesIdenticalSelections) {
  // Two selectors sharing one cache must select exactly what two private-
  // cache selectors do — the cache is invisible to results.
  const auto net = make_net(topo::NetworkType::kParallelHomogeneous, 2);
  PolicyConfig config;
  config.policy = RoutingPolicy::kKspMultipath;
  config.k = 4;

  auto shared = std::make_shared<routing::RouteCache>(true);
  PathSelector a(net, config, shared);
  PathSelector b(net, config, shared);
  PathSelector lone(net, config);
  for (std::uint64_t key = 0; key < 16; ++key) {
    const auto expect = lone.select(HostId{0}, HostId{15}, 1000, key);
    EXPECT_EQ(a.select(HostId{0}, HostId{15}, 1000, key), expect);
    EXPECT_EQ(b.select(HostId{0}, HostId{15}, 1000, key), expect);
  }
  // Second selector's lookups all hit the shared entries.
  EXPECT_GT(shared->stats().hits, 0u);
  EXPECT_EQ(shared->stats().misses, lone.route_cache().stats().misses);
}

TEST(PathSelectorTest, PolicyNames) {
  EXPECT_EQ(to_string(RoutingPolicy::kKspMultipath), "ksp-multipath");
  EXPECT_EQ(to_string(RoutingPolicy::kSizeThreshold), "size-threshold");
}

// --------------------------------------------------------------- harness

TEST(Harness, EndToEndFlowThroughStarter) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.hosts = 16;
  spec.parallelism = 2;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  PolicyConfig policy;
  policy.policy = RoutingPolicy::kRoundRobin;
  SimHarness harness({.spec = spec, .policy = policy});

  int completions = 0;
  harness.starter()(HostId{0}, HostId{15}, 50'000, 0,
                    [&](const sim::FlowRecord& r) {
                      ++completions;
                      EXPECT_EQ(r.bytes, 50'000u);
                    });
  harness.starter()(HostId{3}, HostId{9}, 50'000, 0,
                    [&](const sim::FlowRecord&) { ++completions; });
  harness.run();
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(harness.logger().records().size(), 2u);
  EXPECT_EQ(harness.all_hosts().size(), 16u);
}

TEST(Harness, MultipathStarterLaunchesMptcp) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.hosts = 16;
  spec.parallelism = 2;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  PolicyConfig policy;
  policy.policy = RoutingPolicy::kKspMultipath;
  policy.k = 4;
  SimHarness harness({.spec = spec, .policy = policy});
  harness.starter()(HostId{0}, HostId{15}, 1'000'000, 0, {});
  harness.run();
  ASSERT_EQ(harness.logger().records().size(), 1u);
  EXPECT_EQ(harness.logger().records().front().subflows, 4);
}

}  // namespace
}  // namespace pnet::core
