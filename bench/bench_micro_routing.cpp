// google-benchmark microbenchmarks for the routing substrate: BFS, ECMP
// enumeration, Yen KSP, cross-plane KSP merge, the compiled RouteTable
// arena, and the shared RouteCache (cold miss vs warm hit). These quantify
// the cost of the path computations the experiments lean on.
//
// Besides the default google-benchmark mode, `--json[=PATH]` switches to a
// self-contained report mode and writes one JSON document (committed as
// BENCH_routing.json at the repo root). It has three sections, each
// recording the network (and k) it ran on:
//   * route_cache — cold vs warm RouteCache lookups over --pairs KSP
//     queries (k=8) on the 256-host, 4-plane Jellyfish of the
//     microbenchmarks, with the hit counts, arena and heap bytes and a digest
//     over every path the cold lookups compute;
//   * shortest_per_plane — the same lookups and counts for the same pairs
//     as shortest-per-plane (BFS) queries;
//   * fsim_ksp_sweep — the routing time (RouteCache compute time) of
//     --flows k-shortest-path multipath flows admitted by the fluid engine
//     on a --hosts/--planes fat tree at --k, with the cache enabled vs in
//     pass-through mode.
// Every timing is the median, min and max of three runs, each on a fresh
// cache. Report-mode flags: --flows, --k, --hosts, --planes, --pairs; any
// other flag exits 2.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/path_selector.hpp"
#include "exp/json.hpp"
#include "fsim/fluid.hpp"
#include "routing/ecmp.hpp"
#include "routing/plane_paths.hpp"
#include "routing/route_cache.hpp"
#include "routing/shortest.hpp"
#include "routing/yen.hpp"
#include "topo/parallel.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace {

using namespace pnet;

const topo::ParallelNetwork& jellyfish4() {
  static const auto net = [] {
    topo::NetworkSpec spec;
    spec.topo = topo::TopoKind::kJellyfish;
    spec.type = topo::NetworkType::kParallelHeterogeneous;
    spec.hosts = 256;
    spec.parallelism = 4;
    return topo::build_network(spec);
  }();
  return net;
}

const topo::FatTree& fat_tree16() {
  static const auto ft = [] {
    topo::FatTreeConfig config;
    config.k = 16;
    return topo::build_fat_tree(config);
  }();
  return ft;
}

void BM_BfsFatTree(benchmark::State& state) {
  const auto& ft = fat_tree16();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing::bfs_hops(ft.graph, ft.host_nodes.front()));
  }
}
BENCHMARK(BM_BfsFatTree);

void BM_EcmpEnumerateFatTree(benchmark::State& state) {
  const auto& ft = fat_tree16();
  const auto cap = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::enumerate_shortest_paths(
        ft.graph, ft.host_nodes.front(), ft.host_nodes.back(), cap));
  }
}
BENCHMARK(BM_EcmpEnumerateFatTree)->Arg(8)->Arg(64);

void BM_YenJellyfish(benchmark::State& state) {
  const auto& net = jellyfish4();
  const auto k = static_cast<int>(state.range(0));
  const topo::Graph& g = net.plane(0).graph;
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::k_shortest_paths(
        g, net.host_node(0, HostId{0}), net.host_node(0, HostId{200}), k));
  }
}
BENCHMARK(BM_YenJellyfish)->Arg(4)->Arg(8)->Arg(32);

void BM_KspAcrossPlanes(benchmark::State& state) {
  const auto& net = jellyfish4();
  const auto k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing::ksp_across_planes(net, HostId{0}, HostId{200}, k));
  }
}
BENCHMARK(BM_KspAcrossPlanes)->Arg(8)->Arg(16);

void BM_PathSelectorCached(benchmark::State& state) {
  const auto& net = jellyfish4();
  core::PolicyConfig config;
  config.policy = core::RoutingPolicy::kShortestPlane;
  core::PathSelector selector(net, config);
  (void)selector.select(HostId{0}, HostId{200}, 1000, 0);  // warm the cache
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        selector.select(HostId{0}, HostId{200}, 1000, ++key));
  }
}
BENCHMARK(BM_PathSelectorCached);

// Interning one path into a warm RouteTable: the marginal cost a cache
// miss pays on top of the compute (hash + dedup probe + slab copy).
void BM_RouteTableIntern(benchmark::State& state) {
  const auto& net = jellyfish4();
  const auto paths =
      routing::ksp_across_planes(net, HostId{0}, HostId{200}, 64);
  routing::RouteTable table;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& p = paths[i++ % paths.size()];
    benchmark::DoNotOptimize(table.intern(p.plane, p.links));
  }
}
BENCHMARK(BM_RouteTableIntern);

// A cold RouteCache lookup: full KSP compute + intern. Each iteration uses
// a distinct destination so every lookup misses.
void BM_RouteCacheColdKsp(benchmark::State& state) {
  const auto& net = jellyfish4();
  routing::RouteCache cache(/*enabled=*/true);
  std::int32_t dst = 0;
  std::uint64_t salt = 0;
  for (auto _ : state) {
    dst = (dst + 1) % 255;
    // A fresh tie-break seed each wrap keeps later laps cold too.
    if (dst == 0) ++salt;
    benchmark::DoNotOptimize(cache.lookup(
        net, routing::RouteQuery::ksp(HostId{255}, HostId{dst}, 8, salt)));
  }
}
BENCHMARK(BM_RouteCacheColdKsp);

// A warm RouteCache lookup: shard lock + hash probe.
void BM_RouteCacheWarmKsp(benchmark::State& state) {
  const auto& net = jellyfish4();
  routing::RouteCache cache(/*enabled=*/true);
  const auto q = routing::RouteQuery::ksp(HostId{0}, HostId{200}, 8, 7);
  (void)cache.lookup(net, q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(net, q));
  }
}
BENCHMARK(BM_RouteCacheWarmKsp);

// --------------------------------------------------------- --json report

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

/// Writes the median, min and max of `samples` as `<name>_median` etc.
void write_spread(exp::JsonWriter& w, const std::string& name,
                  const std::vector<double>& samples) {
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  w.field(name + "_median", median_of(samples));
  w.field(name + "_min", *lo);
  w.field(name + "_max", *hi);
}

/// Folds every path of `routes` (plane, length, link ids) into `h`.
std::uint64_t fold_paths(std::uint64_t h,
                         const routing::RouteSnapshot& routes) {
  for (std::size_t i = 0; i < routes.size(); ++i) {
    const routing::PathView view = routes.view(i);
    h = mix64(h ^ static_cast<std::uint64_t>(view.plane()));
    h = mix64(h ^ static_cast<std::uint64_t>(view.hops()));
    for (const LinkId id : view.links()) {
      h = mix64(h ^ static_cast<std::uint32_t>(id.v));
    }
  }
  return h;
}

/// Admits `flows` KSP-multipath flows through a FluidSimulator backed by
/// `cache` and returns the seconds the cache spent computing routes. The
/// engine routes a flow when it admits it, so the run stops at time zero,
/// once every flow is admitted and before any completes.
double route_flows(const topo::ParallelNetwork& net,
                   const fsim::FsimConfig& config,
                   const std::shared_ptr<routing::RouteCache>& cache,
                   int flows, std::uint64_t seed) {
  fsim::FluidSimulator fluid(net, config, cache);
  Rng rng(seed);
  const auto hosts = static_cast<std::uint64_t>(net.num_hosts());
  for (int i = 0; i < flows; ++i) {
    const HostId src{static_cast<std::int32_t>(rng.next_below(hosts))};
    HostId dst{static_cast<std::int32_t>(rng.next_below(hosts))};
    if (dst == src) dst = HostId{(dst.v + 1) % net.num_hosts()};
    fluid.add_flow({src, dst, 1'000'000, 0});
  }
  fluid.run_until(0);
  return static_cast<double>(cache->stats().compute_ns) * 1e-9;
}

void write_network(exp::JsonWriter& w, const topo::ParallelNetwork& net) {
  const topo::NetworkSpec& spec = net.spec();
  w.key("network").begin_object();
  w.field("topo", topo::to_string(spec.topo));
  w.field("type", topo::to_string(spec.type));
  w.field("hosts", spec.hosts);
  w.field("built_hosts", net.num_hosts());
  w.field("planes", net.num_planes());
  w.end_object();
}

/// Runs `queries` through a fresh RouteCache `repeat` times, cold and then
/// warm, and writes the lookup times (median, min and max per query), the
/// cache counts and a digest over every path the cold lookups compute.
/// Returns false, after saying so, when the digest differs between repeats.
bool write_lookups(exp::JsonWriter& w, const topo::ParallelNetwork& net,
                   const std::vector<routing::RouteQuery>& queries,
                   int repeat) {
  const auto n = static_cast<double>(queries.size());
  std::vector<double> cold_ns;
  std::vector<double> warm_ns;
  std::vector<double> compute_ns;
  std::uint64_t digest = 0;
  routing::RouteCacheStats stats;
  std::vector<routing::RouteSnapshot> snapshots(queries.size());
  for (int r = 0; r < repeat; ++r) {
    routing::RouteCache cache(/*enabled=*/true);
    const auto t_cold = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      snapshots[i] = cache.lookup(net, queries[i]);
    }
    cold_ns.push_back(seconds_since(t_cold) * 1e9 / n);
    const auto t_warm = std::chrono::steady_clock::now();
    for (const auto& q : queries) (void)cache.lookup(net, q);
    warm_ns.push_back(seconds_since(t_warm) * 1e9 / n);
    stats = cache.stats();
    compute_ns.push_back(static_cast<double>(stats.compute_ns));

    std::uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (const auto& snapshot : snapshots) h = fold_paths(h, snapshot);
    if (r > 0 && h != digest) {
      std::fprintf(stderr, "path digest differs between repeats\n");
      return false;
    }
    digest = h;
  }
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64, digest);

  write_spread(w, "cold_lookup_ns", cold_ns);
  write_spread(w, "warm_lookup_ns", warm_ns);
  const double warm = median_of(warm_ns);
  w.field("cold_over_warm", warm > 0 ? median_of(cold_ns) / warm : 0.0);
  w.field("hits", stats.hits);
  w.field("misses", stats.misses);
  w.field("hit_rate", static_cast<double>(stats.hits) /
                          static_cast<double>(stats.hits + stats.misses));
  w.field("entries", stats.entries);
  w.field("paths", stats.paths);
  w.field("arena_bytes", stats.arena_bytes);
  w.field("heap_bytes", stats.heap_bytes);
  write_spread(w, "compute_ns", compute_ns);
  w.field("path_digest", std::string(digest_hex));
  return true;
}

int run_json_report(const Flags& flags) {
  flags.require_only({"json", "hosts", "planes", "flows", "k", "pairs"});
  const std::string path = flags.get("json", "-");
  // 32 hosts -> 992 (src, dst) pairs, so 10k flows revisit each pair ~10
  // times: the regime the per-cell shared cache targets (many flows, few
  // pairs). --hosts=64 shows the low-reuse end instead.
  const int hosts = flags.get_int("hosts", 32);
  const int planes = flags.get_int("planes", 2);
  const int flows = flags.get_int("flows", 10'000);
  const int k = flags.get_int("k", 16);
  const int pairs = flags.get_int("pairs", 512);
  constexpr int kRepeat = 3;

  exp::JsonWriter w;
  w.begin_object();
  w.field("bench", "micro_routing");
  w.field("host_cpus", static_cast<int>(std::thread::hardware_concurrency()));
  w.key("config").begin_object();
  w.field("repeat", kRepeat);
  w.end_object();

  // Cold vs warm lookup latency over `pairs` random jellyfish4() pairs,
  // first as KSP queries, then as shortest-per-plane queries.
  {
    const auto& net = jellyfish4();
    constexpr int kLookupK = 8;
    constexpr std::uint64_t kLookupSeed = 7;
    std::vector<routing::RouteQuery> ksp;
    std::vector<routing::RouteQuery> shortest;
    Rng rng(17);
    for (int i = 0; i < pairs; ++i) {
      const HostId src{static_cast<std::int32_t>(rng.next_below(256))};
      HostId dst{static_cast<std::int32_t>(rng.next_below(256))};
      if (dst == src) dst = HostId{(dst.v + 1) % 256};
      ksp.push_back(routing::RouteQuery::ksp(src, dst, kLookupK, kLookupSeed));
      shortest.push_back(routing::RouteQuery::shortest_per_plane(src, dst));
    }

    w.key("route_cache").begin_object();
    write_network(w, net);
    w.field("k", kLookupK);
    w.field("tiebreak_seed", kLookupSeed);
    w.field("pairs", pairs);
    if (!write_lookups(w, net, ksp, kRepeat)) return 1;
    w.end_object();

    w.key("shortest_per_plane").begin_object();
    write_network(w, net);
    w.field("pairs", pairs);
    if (!write_lookups(w, net, shortest, kRepeat)) return 1;
    w.end_object();
  }

  // The fsim KSP sweep: route `flows` k-shortest-path multipath flows with
  // the shared cache enabled vs forced pass-through (PNET_ROUTE_CACHE=off
  // equivalent). The candidate KSP pools are per-pair, so the cached run
  // computes each pair once and the speedup approaches flows / pairs.
  {
    topo::NetworkSpec spec;
    spec.topo = topo::TopoKind::kFatTree;
    spec.type = topo::NetworkType::kParallelHomogeneous;
    spec.hosts = hosts;
    spec.parallelism = planes;
    const auto net = topo::build_network(spec);

    fsim::FsimConfig config;
    config.scheme = fsim::RouteScheme::kKspMultipath;
    config.k = k;

    std::vector<double> cached_s;
    std::vector<double> uncached_s;
    routing::RouteCacheStats stats;
    for (int r = 0; r < kRepeat; ++r) {
      const auto cached = std::make_shared<routing::RouteCache>(true);
      cached_s.push_back(route_flows(net, config, cached, flows, 23));
      stats = cached->stats();
      uncached_s.push_back(route_flows(
          net, config, std::make_shared<routing::RouteCache>(false), flows,
          23));
    }

    w.key("fsim_ksp_sweep").begin_object();
    w.field("engine", "fsim");
    w.field("scheme", "ksp_multipath");
    // The fat-tree builder rounds the host count up to the next radix.
    write_network(w, net);
    w.field("k", k);
    w.field("flows", flows);
    write_spread(w, "cached_s", cached_s);
    write_spread(w, "uncached_s", uncached_s);
    const double cached = median_of(cached_s);
    w.field("speedup", cached > 0 ? median_of(uncached_s) / cached : 0.0);
    w.field("hits", stats.hits);
    w.field("misses", stats.misses);
    w.field("hit_rate", static_cast<double>(stats.hits) /
                            static_cast<double>(stats.hits + stats.misses));
    w.field("arena_bytes", stats.arena_bytes);
    w.field("heap_bytes", stats.heap_bytes);
    w.end_object();
  }

  w.end_object();
  const std::string text = w.str() + "\n";
  if (path == "-" || path == "1") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json", 6) == 0) {
      return run_json_report(Flags(argc, argv));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
