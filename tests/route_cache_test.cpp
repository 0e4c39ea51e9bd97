// Tests for routing::RouteCache and RouteStore: hit/miss accounting, entries
// equal to the direct computation, pass-through mode equivalence,
// bit-identical results when one store is shared across threads and
// handles, and views that stay valid while the store grows.
#include <gtest/gtest.h>

#include <atomic>
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
  return snap.materialize();
}

TEST(RouteCache, HitsAfterFirstLookup) {
  const auto net = fat_tree_net();
  RouteCache cache(/*enabled=*/true);
  const RouteQuery q = RouteQuery::ksp(HostId{0}, HostId{15}, 4, 0x1234);

  const auto first = cache.lookup(net, q);
  const auto second = cache.lookup(net, q);
  EXPECT_EQ(first.data(), second.data());  // literally the same entry

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
  EXPECT_NE(a.data(), b.data());  // different tie-break seed
  EXPECT_NE(a.data(), c.data());  // different kind
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
  // ...but the returned snapshot stays valid while the cache lives.
  const auto snap = passthrough.lookup(net, q);
  EXPECT_GT(snap.size(), 0u);
  EXPECT_FALSE(snap.view(0).empty());
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

// Two handles on one store, like two concurrent cells on one topology:
// overlapping query sets on two threads get the paths a private cache
// computes, and each distinct query costs exactly one miss between them.
TEST(RouteStore, ConcurrentHandlesComputeEachQueryOnce) {
  const auto net = fat_tree_net(16, 2);
  const auto query = [](int h) {
    return RouteQuery::ksp(HostId{0}, HostId{h}, 4,
                           static_cast<std::uint64_t>(h));
  };
  RouteCache lone(/*enabled=*/true);
  std::vector<std::vector<Path>> expected(16);
  for (int h = 1; h < 16; ++h) {
    expected[static_cast<std::size_t>(h)] =
        materialized(lone.lookup(net, query(h)));
  }

  const auto store = std::make_shared<RouteStore>(/*enabled=*/true);
  RouteCache first(store);
  RouteCache second(store);
  // `first` asks hosts 1..11 and `second` 5..15, each three times over.
  const auto ask = [&](RouteCache& cache, int lo, int hi,
                       std::vector<std::vector<Path>>& got) {
    for (int round = 0; round < 3; ++round) {
      for (int h = lo; h <= hi; ++h) {
        got.push_back(materialized(cache.lookup(net, query(h))));
      }
    }
  };
  std::vector<std::vector<Path>> got_first;
  std::vector<std::vector<Path>> got_second;
  std::thread a([&] { ask(first, 1, 11, got_first); });
  std::thread b([&] { ask(second, 5, 15, got_second); });
  a.join();
  b.join();

  for (std::size_t i = 0; i < got_first.size(); ++i) {
    EXPECT_EQ(got_first[i], expected[1 + i % 11]) << i;
  }
  for (std::size_t i = 0; i < got_second.size(); ++i) {
    EXPECT_EQ(got_second[i], expected[5 + i % 11]) << i;
  }
  const RouteCacheStats one = first.stats();
  const RouteCacheStats two = second.stats();
  EXPECT_EQ(one.hits + one.misses, 33u);
  EXPECT_EQ(two.hits + two.misses, 33u);
  EXPECT_EQ(one.misses + two.misses, 15u);
  // What each handle's misses added sums to the store's content.
  EXPECT_EQ(one.entries + two.entries, 15u);
  EXPECT_EQ(one.paths + two.paths, lone.stats().paths);
}

// Views are read without a lock while other threads insert: early views
// must stay valid and unchanged while thousands of later entries grow
// every shard's chunks and rehash its indexes.
TEST(RouteStore, EarlyViewsSurviveGrowth) {
  const auto net = fat_tree_net(16, 2);
  RouteCache cache(/*enabled=*/true);
  std::vector<RouteSnapshot> early;
  std::vector<std::vector<Path>> copies;
  for (int h = 1; h < 16; ++h) {
    early.push_back(cache.lookup(
        net, RouteQuery::ksp(HostId{0}, HostId{h}, 4,
                             static_cast<std::uint64_t>(h))));
    copies.push_back(early.back().materialize());
  }
  const std::size_t heap_before = cache.stats().heap_bytes;

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (std::size_t i = 0; i < early.size(); ++i) {
        ASSERT_EQ(early[i].materialize(), copies[i]);
      }
    }
  });
  // 240 ordered pairs x 2 planes x 8 caps = 3,840 entries, about 240 per
  // shard: each shard's index (16 slots at first) rehashes several times
  // and its entry records (64 at first) fill several chunks.
  int inserted = 0;
  for (int src = 0; src < 16; ++src) {
    for (int dst = 0; dst < 16; ++dst) {
      if (src == dst) continue;
      for (int plane = 0; plane < 2; ++plane) {
        for (int cap = 1; cap <= 8; ++cap) {
          (void)cache.lookup(net, RouteQuery::ecmp_plane(HostId{src},
                                                         HostId{dst}, plane,
                                                         cap));
          ++inserted;
        }
      }
    }
  }
  done.store(true, std::memory_order_release);
  reader.join();

  const RouteCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, early.size() + static_cast<std::size_t>(inserted));
  EXPECT_EQ(stats.misses, stats.entries);
  EXPECT_GT(stats.heap_bytes, 4 * heap_before);
  for (std::size_t i = 0; i < early.size(); ++i) {
    EXPECT_EQ(early[i].materialize(), copies[i]) << i;
  }
}

// Pass-through keeps every result it hands out, so a view stays valid
// while the handle lives, however many lookups follow it.
TEST(RouteStore, PassThroughViewsLiveWithTheHandle) {
  const auto net = fat_tree_net(16, 2);
  RouteCache cached(/*enabled=*/true);
  std::vector<RouteSnapshot> views;
  std::vector<RouteQuery> queries;
  {
    RouteCache passthrough(/*enabled=*/false);
    for (int round = 0; round < 3; ++round) {
      for (int h = 1; h < 16; ++h) {
        queries.push_back(RouteQuery::ecmp_plane(HostId{0}, HostId{h},
                                                 h % 2, 64));
        views.push_back(passthrough.lookup(net, queries.back()));
      }
    }
    for (std::size_t i = 0; i < views.size(); ++i) {
      EXPECT_EQ(views[i].materialize(),
                materialized(cached.lookup(net, queries[i])))
          << i;
    }
    const RouteCacheStats stats = passthrough.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, views.size());
    EXPECT_EQ(stats.entries, views.size());  // one stored result per lookup
    EXPECT_EQ(stats.paths, cached.stats().paths);  // paths still dedup
  }
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
