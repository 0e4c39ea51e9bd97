// Tests for the §3.4 application-facing host interfaces, Jellyfish
// incremental expansion (§6.1), topology DOT export, and CSV CDF loading.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "core/harness.hpp"
#include "routing/shortest.hpp"
#include "core/interfaces.hpp"
#include "topo/export.hpp"
#include "topo/jellyfish.hpp"
#include "workload/traces.hpp"

namespace pnet {
namespace {

// ------------------------------------------------------- HostInterfaces

/// The three host interfaces over a SimHarness's network and factory
/// (the harness's own selector goes unused).
struct InterfaceHarness {
  InterfaceHarness()
      : harness({.spec =
                     [] {
                       topo::NetworkSpec spec;
                       spec.topo = topo::TopoKind::kFatTree;
                       spec.type = topo::NetworkType::kParallelHomogeneous;
                       spec.hosts = 16;
                       spec.parallelism = 2;
                       return spec;
                     }(),
                 .policy = {}}),
        interfaces(harness.net(), harness.factory(), 4) {}

  [[nodiscard]] const std::vector<sim::FlowRecord>& records() {
    return harness.logger().records();
  }

  core::SimHarness harness;
  core::HostInterfaces interfaces;
};

TEST(HostInterfaces, LowLatencyIsSinglePath) {
  InterfaceHarness h;
  h.interfaces.send(core::TrafficClass::kLowLatency, HostId{0}, HostId{15},
                    10'000, 0);
  h.harness.run();
  ASSERT_EQ(h.records().size(), 1u);
  EXPECT_EQ(h.records().front().subflows, 1);
}

TEST(HostInterfaces, HighThroughputIsMultipath) {
  InterfaceHarness h;
  h.interfaces.send(core::TrafficClass::kHighThroughput, HostId{0},
                    HostId{15}, 1'000'000, 0);
  h.harness.run();
  ASSERT_EQ(h.records().size(), 1u);
  EXPECT_EQ(h.records().front().subflows, 4);
}

TEST(HostInterfaces, DefaultDispatchesOnSize) {
  InterfaceHarness h;
  h.interfaces.send(core::TrafficClass::kDefault, HostId{0}, HostId{15},
                    1'000'000, 0);  // small: single path
  h.interfaces.send(core::TrafficClass::kDefault, HostId{1}, HostId{14},
                    200'000'000, 0);  // > 100 MB: multipath
  h.harness.run();
  ASSERT_EQ(h.records().size(), 2u);
  std::map<std::uint64_t, int> subflows_by_size;
  for (const auto& r : h.records()) {
    subflows_by_size[r.bytes] = r.subflows;
  }
  EXPECT_EQ(subflows_by_size[1'000'000], 1);
  EXPECT_GT(subflows_by_size[200'000'000], 1);
}

TEST(HostInterfaces, FailurePropagatesToAllClasses) {
  InterfaceHarness h;
  h.interfaces.set_plane_failed(0, true);
  for (auto tc : {core::TrafficClass::kLowLatency,
                  core::TrafficClass::kHighThroughput,
                  core::TrafficClass::kDefault}) {
    const auto paths =
        h.interfaces.selector(tc).select(HostId{0}, HostId{15}, 1000, 7);
    ASSERT_FALSE(paths.empty()) << core::to_string(tc);
    for (const auto& p : paths) EXPECT_EQ(p.plane, 1);
  }
}

TEST(HostInterfaces, ClassNames) {
  EXPECT_EQ(core::to_string(core::TrafficClass::kLowLatency),
            "low-latency");
  EXPECT_EQ(core::to_string(core::TrafficClass::kHighThroughput),
            "high-throughput");
}

// ------------------------------------------------------------ expansion

TEST(JellyfishExpansion, PreservesDegreesAndGrows) {
  topo::JellyfishConfig config;
  config.num_switches = 20;
  config.network_degree = 6;
  config.hosts_per_switch = 2;
  config.seed = 4;
  const auto base = topo::build_jellyfish(config);
  const auto expanded = topo::expand_jellyfish(base, config, 5, 99);

  EXPECT_EQ(expanded.switch_nodes.size(), 25u);
  EXPECT_EQ(expanded.num_hosts(), 50);

  // Every switch's fabric degree is still <= 6, and old switches keep
  // exactly degree 6 (splice preserves degree).
  std::map<int, int> degree;
  for (int l = 0; l < expanded.graph.num_links(); ++l) {
    const auto& link = expanded.graph.link(LinkId{l});
    if (expanded.graph.is_host(link.src) ||
        expanded.graph.is_host(link.dst)) {
      continue;
    }
    ++degree[link.src.v];
  }
  for (std::size_t s = 0; s < expanded.switch_nodes.size(); ++s) {
    const int d = degree[expanded.switch_nodes[s].v];
    if (s < 20) {
      EXPECT_EQ(d, 6) << "existing switch " << s;
    } else {
      EXPECT_GE(d, 2);
      EXPECT_LE(d, 6);
    }
  }
}

TEST(JellyfishExpansion, StaysConnected) {
  topo::JellyfishConfig config;
  config.num_switches = 16;
  config.network_degree = 4;
  config.hosts_per_switch = 1;
  const auto base = topo::build_jellyfish(config);
  const auto expanded = topo::expand_jellyfish(base, config, 8, 7);
  const auto dist =
      routing::bfs_hops(expanded.graph, expanded.switch_nodes.front());
  for (NodeId sw : expanded.switch_nodes) {
    EXPECT_NE(dist[static_cast<std::size_t>(sw.v)], routing::kUnreachable);
  }
}

TEST(JellyfishExpansion, HostIndicesStable) {
  topo::JellyfishConfig config;
  config.num_switches = 10;
  config.network_degree = 4;
  config.hosts_per_switch = 3;
  const auto base = topo::build_jellyfish(config);
  const auto expanded = topo::expand_jellyfish(base, config, 2, 3);
  for (int h = 0; h < base.num_hosts(); ++h) {
    EXPECT_EQ(expanded.graph.node(expanded.host_nodes[
                  static_cast<std::size_t>(h)]).host,
              HostId{h});
  }
}

// ------------------------------------------------------------ DOT export

TEST(DotExport, SinglePlaneContainsNodesAndEdges) {
  topo::FatTreeConfig config;
  config.k = 4;
  const auto ft = topo::build_fat_tree(config);
  const auto dot = topo::to_dot(ft.graph, "ft");
  EXPECT_NE(dot.find("graph ft {"), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);     // hosts
  EXPECT_NE(dot.find("shape=circle"), std::string::npos);  // switches
  // One undirected edge per cable.
  const auto edges = std::count(dot.begin(), dot.end(), '-') / 2;
  EXPECT_EQ(edges, ft.graph.num_cables());
}

TEST(DotExport, MultiPlaneColorsPlanes) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kJellyfish;
  spec.type = topo::NetworkType::kParallelHeterogeneous;
  spec.hosts = 12;
  spec.parallelism = 2;
  const auto net = topo::build_network(spec);
  const auto dot = topo::to_dot(net);
  EXPECT_NE(dot.find("cluster_plane0"), std::string::npos);
  EXPECT_NE(dot.find("cluster_plane1"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);
  EXPECT_NE(dot.find("color=blue"), std::string::npos);
  // Shared hosts appear once, unprefixed.
  EXPECT_NE(dot.find("  h0 [shape=box"), std::string::npos);
}

// ------------------------------------------------------------ CSV CDFs

TEST(CsvCdf, LoadsAndSamples) {
  std::istringstream csv(
      "# size_bytes,cdf\n"
      "100,0.25\n"
      "1000,0.5\n"
      "\n"
      "10000,1.0\n");
  const auto dist = workload::FlowSizeDistribution::from_csv(csv);
  EXPECT_EQ(dist.points().size(), 3u);
  EXPECT_DOUBLE_EQ(dist.cdf(1000), 0.5);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const auto s = dist.sample(rng);
    EXPECT_GE(s, 100u);
    EXPECT_LE(s, 10'000u);
  }
}

TEST(CsvCdf, RejectsMalformedInput) {
  std::istringstream missing_comma("100 0.5\n200,1.0\n");
  EXPECT_THROW(workload::FlowSizeDistribution::from_csv(missing_comma),
               std::invalid_argument);
  std::istringstream non_monotone("100,0.9\n200,0.5\n300,1.0\n");
  EXPECT_THROW(workload::FlowSizeDistribution::from_csv(non_monotone),
               std::invalid_argument);
  std::istringstream not_normalized("100,0.5\n200,0.9\n");
  EXPECT_THROW(workload::FlowSizeDistribution::from_csv(not_normalized),
               std::invalid_argument);
}

TEST(CsvCdf, RoundTripsEmbeddedTrace) {
  // Serialize an embedded trace to CSV and reload it; CDFs must agree.
  const auto& original =
      workload::FlowSizeDistribution::of(workload::Trace::kWebSearch);
  std::ostringstream csv;
  for (const auto& [size, prob] : original.points()) {
    csv << size << ',' << prob << '\n';
  }
  std::istringstream in(csv.str());
  const auto reloaded = workload::FlowSizeDistribution::from_csv(in);
  for (double x : {1e4, 1e5, 1e6, 1e7}) {
    EXPECT_NEAR(reloaded.cdf(x), original.cdf(x), 1e-9);
  }
}

}  // namespace
}  // namespace pnet
