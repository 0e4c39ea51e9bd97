// Tests for routing: BFS/Dijkstra correctness, Yen KSP properties (loopless,
// sorted, distinct, complete vs brute force), Yen, Dijkstra and the BFS
// shortest path path for path against independent references, the graph's
// in-link lists, ECMP enumeration/hashing, and cross-plane path merging.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <set>
#include <tuple>

#include "routing/ecmp.hpp"
#include "routing/path.hpp"
#include "routing/plane_paths.hpp"
#include "routing/route_table.hpp"
#include "routing/shortest.hpp"
#include "routing/yen.hpp"
#include "topo/fat_tree.hpp"
#include "topo/jellyfish.hpp"
#include "topo/multitier.hpp"
#include "topo/parallel.hpp"
#include "topo/xpander.hpp"
#include "util/rng.hpp"

namespace pnet::routing {
namespace {

using topo::Graph;
using topo::NodeKind;

/// A diamond with a long detour:
///   s - a - t,  s - b - t,  s - c - d - t
Graph diamond(std::vector<NodeId>& nodes) {
  Graph g;
  for (int i = 0; i < 6; ++i) nodes.push_back(g.add_node(NodeKind::kSwitch));
  auto [s, a, b, t, c, d] = std::tuple{nodes[0], nodes[1], nodes[2],
                                       nodes[3], nodes[4], nodes[5]};
  g.add_duplex_link(s, a, 1, 1);
  g.add_duplex_link(a, t, 1, 1);
  g.add_duplex_link(s, b, 1, 1);
  g.add_duplex_link(b, t, 1, 1);
  g.add_duplex_link(s, c, 1, 1);
  g.add_duplex_link(c, d, 1, 1);
  g.add_duplex_link(d, t, 1, 1);
  return g;
}

TEST(Bfs, DistancesOnDiamond) {
  std::vector<NodeId> n;
  const Graph g = diamond(n);
  const auto dist = bfs_hops(g, n[0]);
  EXPECT_EQ(dist[static_cast<std::size_t>(n[0].v)], 0);
  EXPECT_EQ(dist[static_cast<std::size_t>(n[1].v)], 1);
  EXPECT_EQ(dist[static_cast<std::size_t>(n[3].v)], 2);
  EXPECT_EQ(dist[static_cast<std::size_t>(n[5].v)], 2);
}

TEST(Bfs, HostsDoNotTransit) {
  // h1 - sw1 - h2: h2 reachable. h1 - h2 - h3 chain: h3 unreachable via h2.
  Graph g;
  const NodeId h1 = g.add_node(NodeKind::kHost, HostId{0});
  const NodeId h2 = g.add_node(NodeKind::kHost, HostId{1});
  const NodeId h3 = g.add_node(NodeKind::kHost, HostId{2});
  g.add_duplex_link(h1, h2, 1, 1);
  g.add_duplex_link(h2, h3, 1, 1);
  const auto dist = bfs_hops(g, h1);
  EXPECT_EQ(dist[static_cast<std::size_t>(h2.v)], 1);
  EXPECT_EQ(dist[static_cast<std::size_t>(h3.v)], kUnreachable);
}

TEST(ShortestPath, FindsTwoHopPath) {
  std::vector<NodeId> n;
  const Graph g = diamond(n);
  const auto path = shortest_path(g, n[0], n[3]);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 2);
  EXPECT_TRUE(is_valid_path(g, *path, n[0], n[3]));
}

TEST(ShortestPath, ReturnsNulloptWhenDisconnected) {
  Graph g;
  const NodeId a = g.add_node(NodeKind::kSwitch);
  const NodeId b = g.add_node(NodeKind::kSwitch);
  EXPECT_FALSE(shortest_path(g, a, b).has_value());
}

TEST(Dijkstra, RespectsWeights) {
  std::vector<NodeId> n;
  const Graph g = diamond(n);
  // Penalize the two short branches; the 3-hop detour becomes cheapest.
  LinkWeights w(static_cast<std::size_t>(g.num_links()), 1.0);
  for (int l = 0; l < g.num_links(); ++l) {
    const auto& link = g.link(LinkId{l});
    const bool via_detour = link.src == n[4] || link.dst == n[4] ||
                            link.src == n[5] || link.dst == n[5];
    if (!via_detour) w[static_cast<std::size_t>(l)] = 10.0;
  }
  const auto path = dijkstra(g, n[0], n[3], w);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 3);
}

TEST(Dijkstra, BannedLinksAndNodes) {
  std::vector<NodeId> n;
  const Graph g = diamond(n);
  const LinkWeights unit(static_cast<std::size_t>(g.num_links()), 1.0);
  std::vector<bool> banned_nodes(static_cast<std::size_t>(g.num_nodes()));
  banned_nodes[static_cast<std::size_t>(n[1].v)] = true;  // ban a
  banned_nodes[static_cast<std::size_t>(n[2].v)] = true;  // ban b
  const auto path = dijkstra(g, n[0], n[3], unit, {}, banned_nodes);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 3);  // forced onto the detour

  std::vector<bool> all_banned(static_cast<std::size_t>(g.num_links()), true);
  EXPECT_FALSE(dijkstra(g, n[0], n[3], unit, all_banned).has_value());
}

TEST(Yen, DiamondEnumeratesAllPathsInOrder) {
  std::vector<NodeId> n;
  const Graph g = diamond(n);
  const auto paths = k_shortest_paths(g, n[0], n[3], 10);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0].hops(), 2);
  EXPECT_EQ(paths[1].hops(), 2);
  EXPECT_EQ(paths[2].hops(), 3);
  std::set<std::vector<LinkId>> distinct;
  for (const auto& p : paths) {
    EXPECT_TRUE(is_valid_path(g, p, n[0], n[3]));
    EXPECT_TRUE(distinct.insert(p.links).second);
  }
}

TEST(Yen, KBoundsResultCount) {
  std::vector<NodeId> n;
  const Graph g = diamond(n);
  EXPECT_EQ(k_shortest_paths(g, n[0], n[3], 2).size(), 2u);
  EXPECT_EQ(k_shortest_paths(g, n[0], n[3], 0).size(), 0u);
}

/// Brute-force loopless path enumeration for cross-checking Yen.
void enumerate_all(const Graph& g, NodeId at, NodeId dst,
                   std::vector<bool>& visited, Path& current,
                   std::vector<Path>& out) {
  if (at == dst) {
    out.push_back(current);
    return;
  }
  if (g.is_host(at) && !current.links.empty()) return;
  for (LinkId id : g.out_links(at)) {
    const NodeId v = g.link(id).dst;
    if (visited[static_cast<std::size_t>(v.v)]) continue;
    visited[static_cast<std::size_t>(v.v)] = true;
    current.links.push_back(id);
    enumerate_all(g, v, dst, visited, current, out);
    current.links.pop_back();
    visited[static_cast<std::size_t>(v.v)] = false;
  }
}

class YenVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(YenVsBruteForce, MatchesOnRandomJellyfish) {
  topo::JellyfishConfig config;
  config.num_switches = 10;
  config.network_degree = 3;
  config.hosts_per_switch = 1;
  config.seed = GetParam();
  const auto jf = build_jellyfish(config);
  const Graph& g = jf.graph;
  const NodeId src = jf.host_nodes.front();
  const NodeId dst = jf.host_nodes.back();

  std::vector<Path> all;
  std::vector<bool> visited(static_cast<std::size_t>(g.num_nodes()), false);
  visited[static_cast<std::size_t>(src.v)] = true;
  Path current;
  enumerate_all(g, src, dst, visited, current, all);
  std::sort(all.begin(), all.end(), [](const Path& a, const Path& b) {
    return a.hops() < b.hops();
  });

  constexpr int kK = 12;
  const auto yen = k_shortest_paths(g, src, dst, kK);
  const std::size_t expect = std::min<std::size_t>(all.size(), kK);
  ASSERT_EQ(yen.size(), expect);
  // Hop-count multiset of the K shortest must match the brute force one.
  for (std::size_t i = 0; i < yen.size(); ++i) {
    EXPECT_EQ(yen[i].hops(), all[i].hops()) << "position " << i;
    EXPECT_TRUE(is_valid_path(g, yen[i], src, dst));
  }
  // All returned paths are distinct.
  std::set<std::vector<LinkId>> distinct;
  for (const auto& p : yen) EXPECT_TRUE(distinct.insert(p.links).second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, YenVsBruteForce,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(Ecmp, FatTreeInterPodPathCount) {
  topo::FatTreeConfig config;
  config.k = 4;
  const auto ft = build_fat_tree(config);
  // Hosts in different pods have (k/2)^2 = 4 equal-cost 6-link paths.
  const NodeId src = ft.host_nodes.front();
  const NodeId dst = ft.host_nodes.back();
  const auto paths = enumerate_shortest_paths(ft.graph, src, dst);
  EXPECT_EQ(paths.size(), 4u);
  for (const auto& p : paths) {
    EXPECT_EQ(p.hops(), 6);  // host-edge-agg-core-agg-edge-host
    EXPECT_TRUE(is_valid_path(ft.graph, p, src, dst));
  }
}

TEST(Ecmp, SameRackSinglePath) {
  topo::FatTreeConfig config;
  config.k = 4;
  const auto ft = build_fat_tree(config);
  const auto paths =
      enumerate_shortest_paths(ft.graph, ft.host_nodes[0], ft.host_nodes[1]);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].hops(), 2);
}

TEST(Ecmp, SamePodPathCount) {
  topo::FatTreeConfig config;
  config.k = 4;
  const auto ft = build_fat_tree(config);
  // Same pod, different rack: k/2 = 2 paths of 4 links.
  const auto paths =
      enumerate_shortest_paths(ft.graph, ft.host_nodes[0], ft.host_nodes[2]);
  EXPECT_EQ(paths.size(), 2u);
  for (const auto& p : paths) EXPECT_EQ(p.hops(), 4);
}

TEST(Ecmp, CapLimitsEnumeration) {
  topo::FatTreeConfig config;
  config.k = 8;
  const auto ft = build_fat_tree(config);
  const auto paths = enumerate_shortest_paths(
      ft.graph, ft.host_nodes.front(), ft.host_nodes.back(), 5);
  EXPECT_EQ(paths.size(), 5u);
}

TEST(Ecmp, PickIsStableAndBalanced) {
  EXPECT_EQ(ecmp_pick(123, 8), ecmp_pick(123, 8));
  std::vector<int> counts(8, 0);
  for (std::uint64_t f = 0; f < 8000; ++f) {
    ++counts[static_cast<std::size_t>(ecmp_pick(f, 8))];
  }
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(PlanePaths, KspAcrossPlanesInterleavesHomogeneousPlanes) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.hosts = 16;
  spec.parallelism = 2;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  const auto net = build_network(spec);

  const auto paths = ksp_across_planes(net, HostId{0}, HostId{15}, 8);
  ASSERT_EQ(paths.size(), 8u);
  int in_plane0 = 0;
  int in_plane1 = 0;
  for (const auto& p : paths) {
    (p.plane == 0 ? in_plane0 : in_plane1)++;
    EXPECT_TRUE(is_valid_path(net.plane(p.plane).graph,
                              p, net.host_node(p.plane, HostId{0}),
                              net.host_node(p.plane, HostId{15})));
  }
  // Identical planes, equal hop counts -> perfectly even split.
  EXPECT_EQ(in_plane0, 4);
  EXPECT_EQ(in_plane1, 4);
}

TEST(PlanePaths, KspSortedByHops) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kJellyfish;
  spec.hosts = 42;
  spec.parallelism = 4;
  spec.type = topo::NetworkType::kParallelHeterogeneous;
  const auto net = build_network(spec);
  const auto paths = ksp_across_planes(net, HostId{0}, HostId{41}, 16);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i - 1].hops(), paths[i].hops());
  }
}

TEST(PlanePaths, ShortestPerPlaneSortedAndOnePerPlane) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kJellyfish;
  spec.hosts = 42;
  spec.parallelism = 4;
  spec.type = topo::NetworkType::kParallelHeterogeneous;
  const auto net = build_network(spec);
  const auto paths = shortest_per_plane(net, HostId{0}, HostId{41});
  ASSERT_EQ(paths.size(), 4u);
  std::set<int> planes;
  for (const auto& p : paths) planes.insert(p.plane);
  EXPECT_EQ(planes.size(), 4u);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i - 1].hops(), paths[i].hops());
  }
}

TEST(PlanePaths, HeterogeneousMinHopsNeverWorseThanPlaneZero) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kJellyfish;
  spec.hosts = 98;
  spec.parallelism = 4;
  spec.type = topo::NetworkType::kParallelHeterogeneous;
  const auto net = build_network(spec);
  for (int h = 1; h < 20; ++h) {
    const auto paths = shortest_per_plane(net, HostId{0}, HostId{h * 4});
    ASSERT_FALSE(paths.empty());
    int plane0_hops = -1;
    for (const auto& p : paths) {
      if (p.plane == 0) plane0_hops = p.hops();
    }
    ASSERT_GE(plane0_hops, 0);
    EXPECT_LE(paths.front().hops(), plane0_hops);
  }
}

TEST(PlanePaths, EcmpPathsCarryPlaneIndex) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.hosts = 16;
  spec.parallelism = 2;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  const auto net = build_network(spec);
  const auto paths = ecmp_paths_in_plane(net, 1, HostId{0}, HostId{15});
  ASSERT_FALSE(paths.empty());
  for (const auto& p : paths) EXPECT_EQ(p.plane, 1);
}

TEST(Path, EmptyPathAccessorsAreSafe) {
  // Empty paths occur legitimately (e.g. a partitioned plane after faults);
  // src()/dst() must return the invalid id instead of reading front()/back()
  // of an empty vector.
  std::vector<NodeId> n;
  const Graph g = diamond(n);
  const Path empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.hops(), 0);
  EXPECT_FALSE(empty.src(g).valid());
  EXPECT_FALSE(empty.dst(g).valid());
  EXPECT_EQ(empty.latency(g), 0);

  const PathView view(empty);
  EXPECT_TRUE(view.empty());
  EXPECT_FALSE(view.src(g).valid());
  EXPECT_FALSE(view.dst(g).valid());
  EXPECT_EQ(view.latency(g), 0);
}

TEST(RouteTable, InternDedupsAndViewsMatch) {
  std::vector<NodeId> n;
  const Graph g = diamond(n);
  const auto p1 = shortest_path(g, n[0], n[3]);
  ASSERT_TRUE(p1.has_value());

  RouteTable table;
  const PathRef a = table.intern(*p1);
  const PathRef b = table.intern(*p1);  // identical content
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.num_paths(), 1u);
  EXPECT_EQ(table.links_stored(), p1->links.size());

  const PathView view = table.view(a);
  EXPECT_EQ(view.hops(), p1->hops());
  EXPECT_EQ(view.plane(), p1->plane);
  EXPECT_TRUE(std::equal(view.links().begin(), view.links().end(),
                         p1->links.begin(), p1->links.end()));
  EXPECT_EQ(view.src(g), n[0]);
  EXPECT_EQ(view.dst(g), n[3]);
  EXPECT_EQ(view.latency(g), p1->latency(g));
  EXPECT_EQ(view.materialize(), *p1);
}

TEST(RouteTable, PlaneDistinguishesEqualLinkSequences) {
  Path p;
  p.links = {LinkId{0}, LinkId{2}};
  RouteTable table;
  p.plane = 0;
  const PathRef a = table.intern(p);
  p.plane = 1;
  const PathRef b = table.intern(p);
  EXPECT_NE(a, b);
  EXPECT_EQ(table.num_paths(), 2u);
  EXPECT_EQ(table.view(a).plane(), 0);
  EXPECT_EQ(table.view(b).plane(), 1);
}

TEST(RouteTable, EmptyPathInternsWithoutAllocating) {
  RouteTable table;
  Path empty;
  empty.plane = 3;
  const PathRef ref = table.intern(empty);
  const PathView view = table.view(ref);
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.plane(), 3);
  EXPECT_EQ(table.arena_bytes(), 0u);
  // Re-interning dedups without reading a chunk (there is none).
  EXPECT_EQ(table.intern(empty), ref);
  EXPECT_EQ(table.num_paths(), 1u);
  EXPECT_EQ(table.arena_bytes(), 0u);
}

TEST(RouteTable, ManyPathsSurviveSlabGrowth) {
  // Enough distinct paths to fill several arena chunks; earlier refs must
  // stay resolvable (chunks never move).
  RouteTable table;
  std::vector<PathRef> refs;
  Path p;
  for (int i = 0; i < 40'000; ++i) {
    p.links.assign(5, LinkId{i});
    refs.push_back(table.intern(p));
  }
  EXPECT_GT(table.arena_bytes(), std::size_t{64} * 1024 * sizeof(LinkId));
  for (int i = 0; i < 40'000; i += 997) {
    const PathView view = table.view(refs[static_cast<std::size_t>(i)]);
    ASSERT_EQ(view.hops(), 5);
    EXPECT_EQ(view.links().front(), LinkId{i});
  }
}

// ------------------------------------------------- independent reference
//
// Yen and Dijkstra as they stood before the pruned spur search: a full
// Dijkstra per spur node with fresh ban masks, hosts pushed and dropped.
// The production search must return exactly these paths, in this order.

std::optional<Path> reference_dijkstra(const Graph& g, NodeId src,
                                       NodeId dst, const LinkWeights& weights,
                                       const std::vector<bool>& banned_links,
                                       const std::vector<bool>& banned_nodes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<std::size_t>(g.num_nodes()), kInf);
  std::vector<LinkId> parent_link(static_cast<std::size_t>(g.num_nodes()));
  auto node_banned = [&](NodeId n) {
    return !banned_nodes.empty() && banned_nodes[static_cast<std::size_t>(n.v)];
  };
  auto link_banned = [&](LinkId l) {
    return !banned_links.empty() && banned_links[static_cast<std::size_t>(l.v)];
  };
  if (node_banned(src) || node_banned(dst)) return std::nullopt;

  using Entry = std::pair<double, std::int32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[static_cast<std::size_t>(src.v)] = 0.0;
  heap.emplace(0.0, src.v);
  while (!heap.empty()) {
    const auto [d, uv] = heap.top();
    heap.pop();
    const NodeId u{uv};
    if (d > dist[static_cast<std::size_t>(uv)]) continue;
    if (u == dst) break;
    if (u != src && g.is_host(u)) continue;
    for (LinkId id : g.out_links(u)) {
      if (link_banned(id)) continue;
      const NodeId v = g.link(id).dst;
      if (node_banned(v)) continue;
      const double nd = d + weights[static_cast<std::size_t>(id.v)];
      if (nd < dist[static_cast<std::size_t>(v.v)]) {
        dist[static_cast<std::size_t>(v.v)] = nd;
        parent_link[static_cast<std::size_t>(v.v)] = id;
        heap.emplace(nd, v.v);
      }
    }
  }
  if (dist[static_cast<std::size_t>(dst.v)] == kInf) return std::nullopt;
  Path path;
  for (NodeId at = dst; at != src;) {
    const LinkId incoming = parent_link[static_cast<std::size_t>(at.v)];
    path.links.push_back(incoming);
    at = g.link(incoming).src;
  }
  std::reverse(path.links.begin(), path.links.end());
  return path;
}

std::vector<Path> reference_k_shortest_paths(
    const Graph& g, NodeId src, NodeId dst, int k,
    const LinkWeights* tiebreak_weights = nullptr) {
  std::vector<Path> result;
  if (k <= 0 || src == dst) return result;
  const LinkWeights unit =
      tiebreak_weights != nullptr
          ? *tiebreak_weights
          : LinkWeights(static_cast<std::size_t>(g.num_links()), 1.0);

  auto first = reference_dijkstra(g, src, dst, unit, {}, {});
  if (!first) return result;
  result.push_back(std::move(*first));

  auto path_less = [](const Path& a, const Path& b) {
    if (a.hops() != b.hops()) return a.hops() < b.hops();
    return a.links < b.links;
  };
  std::set<Path, decltype(path_less)> candidates(path_less);
  while (static_cast<int>(result.size()) < k) {
    const Path& prev = result.back();
    Path root_path;
    root_path.plane = prev.plane;
    NodeId spur_node = src;
    for (std::size_t i = 0; i < prev.links.size(); ++i) {
      std::vector<bool> banned_links(static_cast<std::size_t>(g.num_links()),
                                     false);
      std::vector<bool> banned_nodes(static_cast<std::size_t>(g.num_nodes()),
                                     false);
      for (const Path& p : result) {
        if (p.links.size() > i &&
            std::equal(root_path.links.begin(), root_path.links.end(),
                       p.links.begin())) {
          banned_links[static_cast<std::size_t>(p.links[i].v)] = true;
        }
      }
      NodeId at = src;
      for (const LinkId id : root_path.links) {
        banned_nodes[static_cast<std::size_t>(at.v)] = true;
        at = g.link(id).dst;
      }
      auto spur = reference_dijkstra(g, spur_node, dst, unit, banned_links,
                                     banned_nodes);
      if (spur) {
        Path total;
        total.plane = prev.plane;
        total.links = root_path.links;
        total.links.insert(total.links.end(), spur->links.begin(),
                           spur->links.end());
        if (std::find(result.begin(), result.end(), total) == result.end()) {
          candidates.insert(std::move(total));
        }
      }
      root_path.links.push_back(prev.links[i]);
      spur_node = g.link(prev.links[i]).dst;
    }
    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return result;
}

std::vector<Path> reference_ksp_across_planes(const topo::ParallelNetwork& net,
                                              HostId src, HostId dst, int k,
                                              std::uint64_t tiebreak_seed,
                                              int total_cap) {
  if (total_cap <= 0) total_cap = k;
  std::vector<std::tuple<int, int, int>> order;
  std::vector<Path> pool;
  for (int p = 0; p < net.num_planes(); ++p) {
    const Graph& g = net.plane(p).graph;
    LinkWeights jitter;
    if (tiebreak_seed != 0) {
      jitter = jittered_unit_weights(
          g, tiebreak_seed + static_cast<std::uint64_t>(p) * 0x1F3D5B79ULL);
    }
    auto paths = reference_k_shortest_paths(
        g, net.host_node(p, src), net.host_node(p, dst), k,
        tiebreak_seed != 0 ? &jitter : nullptr);
    for (std::size_t rank = 0; rank < paths.size(); ++rank) {
      paths[rank].plane = p;
      order.emplace_back(paths[rank].hops(), static_cast<int>(rank), p);
      pool.push_back(std::move(paths[rank]));
    }
  }
  std::vector<std::size_t> index(pool.size());
  for (std::size_t i = 0; i < index.size(); ++i) index[i] = i;
  std::sort(index.begin(), index.end(), [&](std::size_t a, std::size_t b) {
    return order[a] < order[b];
  });
  std::vector<Path> out;
  for (std::size_t i = 0;
       i < index.size() && static_cast<int>(out.size()) < total_cap; ++i) {
    out.push_back(std::move(pool[index[i]]));
  }
  return out;
}

/// Runs `queries` random queries on `net` through both ksp_across_planes
/// and plane-0 k_shortest_paths, each against the reference, and returns
/// how many paths matched. A query draws its hosts, k in [1, 16], and unit
/// or jittered weights (or, for direct queries, integer weights in
/// [0, 3]).
std::size_t expect_matches_reference(const topo::ParallelNetwork& net,
                                     int queries, std::uint64_t seed) {
  Rng rng(seed);
  std::size_t paths = 0;
  const int hosts = net.num_hosts();
  const Graph& g0 = net.plane(0).graph;
  for (int q = 0; q < queries; ++q) {
    const HostId src{rng.next_int(0, hosts)};
    HostId dst{rng.next_int(0, hosts)};
    if (dst == src) dst = HostId{(dst.v + 1) % hosts};
    const int k = rng.next_int(1, 17);
    const std::uint64_t tiebreak = rng.next_below(2) == 0 ? 0 : rng.next_u64();
    const int total_cap = rng.next_below(2) == 0 ? 0 : k * net.num_planes();

    const auto got = ksp_across_planes(net, src, dst, k, tiebreak, total_cap);
    const auto want =
        reference_ksp_across_planes(net, src, dst, k, tiebreak, total_cap);
    EXPECT_EQ(got, want) << "ksp_across_planes query " << q << ": " << src.v
                         << " -> " << dst.v << " k=" << k
                         << " seed=" << tiebreak;
    paths += want.size();

    LinkWeights weights;
    switch (rng.next_below(3)) {
      case 0:
        break;  // unit
      case 1:
        weights = jittered_unit_weights(g0, rng.next_u64());
        break;
      default:
        weights.resize(static_cast<std::size_t>(g0.num_links()));
        for (auto& w : weights) w = static_cast<double>(rng.next_below(4));
        break;
    }
    const LinkWeights* w = weights.empty() ? nullptr : &weights;
    const NodeId s0 = net.host_node(0, src);
    const NodeId d0 = net.host_node(0, dst);
    const auto direct = k_shortest_paths(g0, s0, d0, k, w);
    const auto direct_want = reference_k_shortest_paths(g0, s0, d0, k, w);
    EXPECT_EQ(direct, direct_want) << "k_shortest_paths query " << q << ": "
                                   << src.v << " -> " << dst.v << " k=" << k;
    paths += direct_want.size();
  }
  return paths;
}

topo::ParallelNetwork reference_net(topo::TopoKind kind, int hosts,
                                    int planes) {
  topo::NetworkSpec spec;
  spec.topo = kind;
  spec.hosts = hosts;
  spec.parallelism = planes;
  spec.type = planes == 1 ? topo::NetworkType::kSerialLow
                          : topo::NetworkType::kParallelHeterogeneous;
  return topo::build_network(spec);
}

TEST(YenReference, MatchesOnJellyfish) {
  std::size_t paths = 0;
  paths += expect_matches_reference(
      reference_net(topo::TopoKind::kJellyfish, 96, 4), 300, 11);
  paths += expect_matches_reference(
      reference_net(topo::TopoKind::kJellyfish, 200, 2), 200, 12);
  paths += expect_matches_reference(
      reference_net(topo::TopoKind::kJellyfish, 686, 1), 60, 13);
  EXPECT_GT(paths, 5000u);
}

TEST(YenReference, MatchesOnFatTree) {
  std::size_t paths = 0;
  paths += expect_matches_reference(
      reference_net(topo::TopoKind::kFatTree, 54, 2), 200, 21);
  paths += expect_matches_reference(
      reference_net(topo::TopoKind::kFatTree, 128, 2), 150, 22);
  EXPECT_GT(paths, 3000u);
}

TEST(YenReference, MatchesOnXpander) {
  const std::size_t paths = expect_matches_reference(
      reference_net(topo::TopoKind::kXpander, 128, 2), 200, 31);
  EXPECT_GT(paths, 2000u);
}

TEST(YenReference, SpurWhoseTreePathIsBannedStartsUnbounded) {
  // The reverse tree to t routes s via a (lowest node id at equal cost).
  // Ban s->a: the tree path from s is infeasible, so the spur search starts
  // with no bound and must still find the reference's path via b.
  std::vector<NodeId> n;
  const Graph g = diamond(n);
  const LinkId s_to_a = g.out_links(n[0]).front();
  ASSERT_EQ(g.link(s_to_a).dst, n[1]);

  PathSearch search(g, nullptr, nullptr);
  search.build_tree(n[3]);
  EXPECT_TRUE(search.tree_feasible(n[0]));
  search.ban_link(s_to_a);
  EXPECT_FALSE(search.tree_feasible(n[0]));
  const auto got = search.find(n[0], n[3]);

  std::vector<bool> banned(static_cast<std::size_t>(g.num_links()), false);
  banned[static_cast<std::size_t>(s_to_a.v)] = true;
  const LinkWeights unit(static_cast<std::size_t>(g.num_links()), 1.0);
  const auto want = reference_dijkstra(g, n[0], n[3], unit, banned, {});
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(got, want);
  EXPECT_EQ(g.link(got->links.front()).dst, n[2]);  // via b

  // A banned node on the tree path is just as infeasible.
  search.clear_bans();
  search.ban_node(n[1]);
  EXPECT_FALSE(search.tree_feasible(n[0]));
  search.clear_bans();
  EXPECT_TRUE(search.tree_feasible(n[0]));

  for (int k = 1; k <= 4; ++k) {
    EXPECT_EQ(k_shortest_paths(g, n[0], n[3], k),
              reference_k_shortest_paths(g, n[0], n[3], k));
  }
}

TEST(YenReference, DstCutOffByFaults) {
  // Every cable of host dst banned in the base mask: the search must
  // answer nullopt, with and without the reverse tree, as the reference
  // does. Yen meets a closed host dst on every spur from dst's ToR.
  const auto net = reference_net(topo::TopoKind::kJellyfish, 96, 2);
  const Graph& g0 = net.plane(0).graph;
  const NodeId src = net.host_node(0, HostId{3});
  const NodeId dst = net.host_node(0, HostId{70});
  std::vector<bool> bans(static_cast<std::size_t>(g0.num_links()), false);
  for (const LinkId id : g0.out_links(dst)) {
    bans[static_cast<std::size_t>(id.v)] = true;
    bans[static_cast<std::size_t>(g0.reverse(id).v)] = true;
  }
  const LinkWeights unit(static_cast<std::size_t>(g0.num_links()), 1.0);
  EXPECT_FALSE(reference_dijkstra(g0, src, dst, unit, bans, {}).has_value());
  EXPECT_FALSE(dijkstra(g0, src, dst, unit, bans).has_value());
  PathSearch pruned(g0, nullptr, &bans);
  pruned.build_tree(dst);
  EXPECT_FALSE(pruned.find(src, dst).has_value());
  // Unbanned, the same query has a path and every plane offers one.
  EXPECT_TRUE(dijkstra(g0, src, dst, unit).has_value());
  const auto got = ksp_across_planes(net, HostId{3}, HostId{70}, 8, 5, 0);
  EXPECT_EQ(got, reference_ksp_across_planes(net, HostId{3}, HostId{70}, 8,
                                             5, 0));
}

TEST(Dijkstra, MatchesReferenceOnArbitraryWeights) {
  // The LP oracle's use: lengths of any non-negative magnitude, including
  // zero, with link and node bans.
  const auto net = reference_net(topo::TopoKind::kJellyfish, 96, 1);
  const Graph& g = net.plane(0).graph;
  Rng rng(41);
  for (int q = 0; q < 200; ++q) {
    LinkWeights w(static_cast<std::size_t>(g.num_links()));
    for (auto& x : w) {
      // Lengths spanning e^-10 .. e^10, one in eight exactly zero.
      x = rng.next_below(8) == 0
              ? 0.0
              : std::exp(rng.next_double() * 20.0 - 10.0);
    }
    std::vector<bool> links(static_cast<std::size_t>(g.num_links()), false);
    std::vector<bool> nodes(static_cast<std::size_t>(g.num_nodes()), false);
    for (int i = 0; i < q % 12; ++i) {
      links[static_cast<std::size_t>(rng.next_int(0, g.num_links()))] = true;
      nodes[static_cast<std::size_t>(rng.next_int(0, g.num_nodes()))] = true;
    }
    const NodeId src = net.host_node(0, HostId{rng.next_int(0, 96)});
    const NodeId dst = net.host_node(0, HostId{rng.next_int(0, 96)});
    EXPECT_EQ(dijkstra(g, src, dst, w, links, nodes),
              reference_dijkstra(g, src, dst, w, links, nodes))
        << "query " << q;
    // Pruned Yen under the same lengths.
    const int k = 1 + q % 8;
    EXPECT_EQ(k_shortest_paths(g, src, dst, k, &w),
              reference_k_shortest_paths(g, src, dst, k, &w))
        << "query " << q;
  }
}

// ----------------------------------------- BFS shortest path reference
//
// shortest_path as it stood before it stopped at dst: a std::queue BFS
// that queues every labelled node, skips non-transit hosts when it pops
// them, and stops only when it pops dst.

std::optional<Path> reference_shortest_path(const Graph& g, NodeId src,
                                            NodeId dst) {
  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()),
                        kUnreachable);
  std::vector<LinkId> parent_link(static_cast<std::size_t>(g.num_nodes()));
  dist[static_cast<std::size_t>(src.v)] = 0;
  std::queue<NodeId> frontier;
  frontier.push(src);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    if (u == dst) break;
    if (u != src && g.is_host(u)) continue;
    for (LinkId id : g.out_links(u)) {
      const NodeId v = g.link(id).dst;
      if (dist[static_cast<std::size_t>(v.v)] == kUnreachable) {
        dist[static_cast<std::size_t>(v.v)] =
            dist[static_cast<std::size_t>(u.v)] + 1;
        parent_link[static_cast<std::size_t>(v.v)] = id;
        frontier.push(v);
      }
    }
  }
  if (dist[static_cast<std::size_t>(dst.v)] == kUnreachable) {
    return std::nullopt;
  }
  Path path;
  for (NodeId at = dst; at != src;) {
    const LinkId incoming = parent_link[static_cast<std::size_t>(at.v)];
    path.links.push_back(incoming);
    at = g.link(incoming).src;
  }
  std::reverse(path.links.begin(), path.links.end());
  return path;
}

std::vector<Path> reference_shortest_per_plane(
    const topo::ParallelNetwork& net, HostId src, HostId dst) {
  std::vector<Path> out;
  for (int p = 0; p < net.num_planes(); ++p) {
    auto path = reference_shortest_path(
        net.plane(p).graph, net.host_node(p, src), net.host_node(p, dst));
    if (path) {
      path->plane = p;
      out.push_back(std::move(*path));
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const Path& a, const Path& b) {
    return a.hops() < b.hops();
  });
  return out;
}

/// Runs `queries` random queries on `net`: shortest_per_plane between two
/// hosts, and shortest_path between two nodes of one plane (hosts or
/// switches, one in sixteen with src == dst), each against the reference.
/// Returns how many paths matched.
std::size_t expect_bfs_matches_reference(const topo::ParallelNetwork& net,
                                         int queries, std::uint64_t seed) {
  Rng rng(seed);
  std::size_t paths = 0;
  const int hosts = net.num_hosts();
  for (int q = 0; q < queries; ++q) {
    const HostId src{rng.next_int(0, hosts)};
    const HostId dst{rng.next_int(0, hosts)};

    const auto got = shortest_per_plane(net, src, dst);
    EXPECT_EQ(got, reference_shortest_per_plane(net, src, dst))
        << "shortest_per_plane query " << q << ": " << src.v << " -> "
        << dst.v;
    paths += got.size();

    const int p = rng.next_int(0, net.num_planes());
    const Graph& g = net.plane(p).graph;
    const NodeId a{rng.next_int(0, g.num_nodes())};
    const NodeId b = rng.next_below(16) == 0
                         ? a
                         : NodeId{rng.next_int(0, g.num_nodes())};
    const auto direct = shortest_path(g, a, b);
    EXPECT_EQ(direct, reference_shortest_path(g, a, b))
        << "shortest_path query " << q << " plane " << p << ": " << a.v
        << " -> " << b.v;
    if (direct) ++paths;
  }
  return paths;
}

TEST(ShortestPathReference, MatchesOnJellyfish) {
  std::size_t paths = 0;
  paths += expect_bfs_matches_reference(
      reference_net(topo::TopoKind::kJellyfish, 96, 4), 500, 51);
  paths += expect_bfs_matches_reference(
      reference_net(topo::TopoKind::kJellyfish, 686, 1), 300, 52);
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kJellyfish;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  spec.hosts = 686;
  spec.parallelism = 4;
  paths += expect_bfs_matches_reference(topo::build_network(spec), 300, 53);
  EXPECT_GT(paths, 2000u);
}

TEST(ShortestPathReference, MatchesOnFatTree) {
  std::size_t paths = 0;
  paths += expect_bfs_matches_reference(
      reference_net(topo::TopoKind::kFatTree, 54, 2), 300, 61);
  paths += expect_bfs_matches_reference(
      reference_net(topo::TopoKind::kFatTree, 128, 2), 300, 62);
  EXPECT_GT(paths, 800u);
}

TEST(ShortestPathReference, MatchesOnXpander) {
  const std::size_t paths = expect_bfs_matches_reference(
      reference_net(topo::TopoKind::kXpander, 128, 2), 400, 71);
  EXPECT_GT(paths, 500u);
}

// ------------------------------------------------------------ in-links

/// Graph::in_links(n) must list exactly the links whose dst is n, in
/// ascending id: the order build_tree() relies on. Hosts are single-homed,
/// which is what makes Yen's spur from a host's switch a dead one.
void expect_in_links_match_scan(const Graph& g) {
  std::vector<std::vector<LinkId>> want(
      static_cast<std::size_t>(g.num_nodes()));
  for (int l = 0; l < g.num_links(); ++l) {
    want[static_cast<std::size_t>(g.link(LinkId{l}).dst.v)].push_back(
        LinkId{l});
  }
  for (int n = 0; n < g.num_nodes(); ++n) {
    const auto got = g.in_links(NodeId{n});
    EXPECT_TRUE(std::equal(got.begin(), got.end(),
                           want[static_cast<std::size_t>(n)].begin(),
                           want[static_cast<std::size_t>(n)].end()))
        << "node " << n;
    if (g.is_host(NodeId{n})) {
      EXPECT_EQ(got.size(), 1u) << "host " << n;
    }
  }
}

TEST(InLinks, MatchBruteForceScanOnEveryBuilder) {
  std::vector<NodeId> n;
  expect_in_links_match_scan(diamond(n));
  for (const int k : {4, 8}) {
    topo::FatTreeConfig config;
    config.k = k;
    expect_in_links_match_scan(topo::build_fat_tree(config).graph);
  }
  expect_in_links_match_scan(topo::build_jellyfish({}).graph);
  expect_in_links_match_scan(topo::build_xpander({}).graph);
  topo::MultiTierConfig tiers;
  tiers.radix = 4;
  tiers.tiers = 3;
  expect_in_links_match_scan(topo::build_multi_tier_fat_tree(tiers).graph);
  expect_in_links_match_scan(topo::build_chassis_fat_tree(32, 4, 8).graph);
  for (const auto kind : {topo::TopoKind::kFatTree, topo::TopoKind::kJellyfish,
                          topo::TopoKind::kXpander}) {
    for (const auto type : {topo::NetworkType::kSerialLow,
                            topo::NetworkType::kParallelHomogeneous,
                            topo::NetworkType::kParallelHeterogeneous,
                            topo::NetworkType::kSerialHigh}) {
      topo::NetworkSpec spec;
      spec.topo = kind;
      spec.type = type;
      spec.hosts = 64;
      spec.parallelism = 4;
      const auto net = topo::build_network(spec);
      for (int p = 0; p < net.num_planes(); ++p) {
        expect_in_links_match_scan(net.plane(p).graph);
      }
    }
  }
}

// ------------------------------------------------------- dead-spur exit

TEST(PathSearch, ClosedDstReturnsNulloptAndOneOpenInLinkMatchesDijkstra) {
  // Switch destinations, with several in-links each: close all of them
  // (by spur ban, base ban, or a ban on the node they start at), then
  // reopen one that starts at a switch. find(), with and without the
  // reverse tree, must agree with the unpruned dijkstra() and the
  // reference either way.
  const auto net = reference_net(topo::TopoKind::kJellyfish, 96, 1);
  const Graph& g = net.plane(0).graph;
  const LinkWeights unit(static_cast<std::size_t>(g.num_links()), 1.0);
  const auto switches = g.switches();
  Rng rng(81);
  int reopened = 0;
  for (int q = 0; q < 60; ++q) {
    const NodeId dst = switches[rng.next_below(switches.size())];
    const NodeId src = net.host_node(0, HostId{rng.next_int(0, 96)});
    const auto in = g.in_links(dst);
    ASSERT_GT(in.size(), 1u);
    // Half the queries put the link bans in the base mask.
    const bool in_base = rng.next_below(2) == 0;
    std::vector<bool> links(static_cast<std::size_t>(g.num_links()), false);
    std::vector<bool> nodes(static_cast<std::size_t>(g.num_nodes()), false);
    std::vector<LinkId> switch_links;
    for (const LinkId id : in) {
      const NodeId from = g.link(id).src;
      if (!g.is_host(from)) switch_links.push_back(id);
      if (rng.next_below(3) == 0 && from != src) {
        nodes[static_cast<std::size_t>(from.v)] = true;
      } else {
        links[static_cast<std::size_t>(id.v)] = true;
      }
    }
    auto expect_find = [&](const std::optional<Path>& want) {
      const std::vector<bool> none;
      const std::vector<bool>& base = in_base ? links : none;
      PathSearch plain(g, nullptr, &base);
      PathSearch pruned(g, nullptr, &base);
      pruned.build_tree(dst);
      for (PathSearch* search : {&plain, &pruned}) {
        for (int l = 0; l < g.num_links(); ++l) {
          if (!in_base && links[static_cast<std::size_t>(l)]) {
            search->ban_link(LinkId{l});
          }
        }
        for (int n = 0; n < g.num_nodes(); ++n) {
          if (nodes[static_cast<std::size_t>(n)]) search->ban_node(NodeId{n});
        }
        EXPECT_EQ(search->find(src, dst), want) << "query " << q;
      }
      EXPECT_EQ(dijkstra(g, src, dst, unit, links, nodes), want)
          << "query " << q;
    };
    EXPECT_FALSE(reference_dijkstra(g, src, dst, unit, links, nodes));
    expect_find(std::nullopt);

    // Reopen one in-link from a switch: lift its link ban and the ban on
    // the node it starts at.
    ASSERT_FALSE(switch_links.empty());
    const LinkId open = switch_links[rng.next_below(switch_links.size())];
    links[static_cast<std::size_t>(open.v)] = false;
    nodes[static_cast<std::size_t>(g.link(open).src.v)] = false;
    const auto want = reference_dijkstra(g, src, dst, unit, links, nodes);
    expect_find(want);
    if (want) {
      EXPECT_EQ(want->links.back(), open) << "query " << q;
      ++reopened;
    }
  }
  EXPECT_GT(reopened, 40);

  // The exit never fires for src == dst: that is the empty path.
  PathSearch search(g, nullptr, nullptr);
  const NodeId s = switches.front();
  for (const LinkId id : g.in_links(s)) search.ban_link(id);
  const auto empty = search.find(s, s);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

}  // namespace
}  // namespace pnet::routing
