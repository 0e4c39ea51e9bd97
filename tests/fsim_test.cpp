// Tests for the flow-level fluid simulator: max-min allocator properties,
// analytic time-dynamics, cross-validation against lp::max_concurrent_flow
// (the two solve the same problem for single-fixed-path commodities) and
// against the packet simulator's FCTs, and sweep determinism across thread
// counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/harness.hpp"
#include "fsim/fluid.hpp"
#include "fsim/max_min.hpp"
#include "lp/link_index.hpp"
#include "lp/mcf.hpp"
#include "routing/ecmp.hpp"
#include "routing/plane_paths.hpp"
#include "topo/parallel.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"
#include "workload/patterns.hpp"

namespace pnet::fsim {
namespace {

topo::NetworkSpec fat_tree_spec(topo::NetworkType type, int hosts,
                                int planes, std::uint64_t seed = 1) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.type = type;
  spec.hosts = hosts;
  spec.parallelism = planes;
  spec.seed = seed;
  return spec;
}

// ------------------------------------------------------------ MaxMinAllocator

TEST(MaxMinAllocator, TwoFlowsShareOneLink) {
  MaxMinAllocator alloc({10.0});
  const int a = alloc.add({0});
  const int b = alloc.add({0});
  alloc.solve();
  EXPECT_DOUBLE_EQ(alloc.rate_bps(a), 5.0);
  EXPECT_DOUBLE_EQ(alloc.rate_bps(b), 5.0);
}

TEST(MaxMinAllocator, ClassicChainAllocation) {
  // Links: 0 (cap 10) shared by A and B; 1 (cap 20) shared by B and C.
  // Max-min: A = B = 5 (link 0 bottleneck), C = 15 (what link 1 leaves).
  MaxMinAllocator alloc({10.0, 20.0});
  const int a = alloc.add({0});
  const int b = alloc.add({0, 1});
  const int c = alloc.add({1});
  alloc.solve();
  EXPECT_NEAR(alloc.rate_bps(a), 5.0, 1e-9);
  EXPECT_NEAR(alloc.rate_bps(b), 5.0, 1e-9);
  EXPECT_NEAR(alloc.rate_bps(c), 15.0, 1e-9);
}

TEST(MaxMinAllocator, DisjointAddsTakeFastPath) {
  MaxMinAllocator alloc({4.0, 7.0, 9.0});
  const int a = alloc.add({0});
  const int b = alloc.add({1, 2});
  EXPECT_FALSE(alloc.dirty());  // neither add needed a global solve
  EXPECT_EQ(alloc.fast_paths(), 2);
  EXPECT_EQ(alloc.full_solves(), 0);
  EXPECT_DOUBLE_EQ(alloc.rate_bps(a), 4.0);
  EXPECT_DOUBLE_EQ(alloc.rate_bps(b), 7.0);  // min capacity along the path

  // A third subflow overlapping b's path must dirty the allocator. Link 2
  // (cap 9) is then the shared bottleneck: b and c settle at 4.5 each.
  const int c = alloc.add({2});
  EXPECT_TRUE(alloc.dirty());
  alloc.solve();
  EXPECT_EQ(alloc.full_solves(), 1);
  EXPECT_DOUBLE_EQ(alloc.rate_bps(a), 4.0);
  EXPECT_NEAR(alloc.rate_bps(b), 4.5, 1e-9);
  EXPECT_NEAR(alloc.rate_bps(c), 4.5, 1e-9);
}

TEST(MaxMinAllocator, RemoveReleasesBandwidth) {
  MaxMinAllocator alloc({10.0});
  const int a = alloc.add({0});
  const int b = alloc.add({0});
  alloc.solve();
  EXPECT_DOUBLE_EQ(alloc.rate_bps(a), 5.0);
  alloc.remove(b);
  alloc.solve();
  EXPECT_DOUBLE_EQ(alloc.rate_bps(a), 10.0);
  EXPECT_EQ(alloc.active(), 1);
}

TEST(MaxMinAllocator, MatchesLpMaxMinFairOnRandomInstances) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const int num_links = 3 + static_cast<int>(rng.next_below(6));
    std::vector<double> cap;
    for (int l = 0; l < num_links; ++l) {
      cap.push_back(1.0 + static_cast<double>(rng.next_below(20)));
    }
    std::vector<std::vector<int>> paths;
    const int num_flows = 2 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < num_flows; ++f) {
      std::vector<int> links;
      for (int l = 0; l < num_links; ++l) {
        if (rng.next_below(2) == 0) links.push_back(l);
      }
      if (links.empty()) links.push_back(0);
      paths.push_back(std::move(links));
    }
    const auto oracle = lp::max_min_fair(cap, paths);
    MaxMinAllocator alloc(cap);
    std::vector<int> ids;
    for (const auto& p : paths) ids.push_back(alloc.add(p));
    alloc.solve();
    for (std::size_t f = 0; f < paths.size(); ++f) {
      EXPECT_NEAR(alloc.rate_bps(ids[f]), oracle[f], 1e-6 * oracle[f])
          << "trial " << trial << " flow " << f;
    }
  }
}

// --------------------------------------------------------- FluidSimulator

TEST(FluidSimulator, StaggeredArrivalsFollowAnalyticSchedule) {
  // Two 100 MB flows pinned to the same single path. B arrives at 4 ms.
  // At 100 Gb/s (12.5 GB/s): A alone drains 50 MB by t=4ms, then each gets
  // 6.25 GB/s; A's remaining 50 MB takes 8 ms (A ends at 12 ms), B then
  // finishes its remaining 50 MB alone in 4 ms (B ends at 16 ms).
  const auto net = topo::build_network(
      fat_tree_spec(topo::NetworkType::kSerialLow, 16, 1));
  ASSERT_DOUBLE_EQ(net.plane(0).link_rate_bps, 100e9);
  FsimConfig config;
  const auto paths = choose_paths(net, config, HostId{0}, HostId{1}, 7);
  ASSERT_EQ(paths.size(), 1u);

  FluidSimulator fluid(net, config);
  const std::uint64_t mb100 = 100'000'000;
  fluid.add_flow({HostId{0}, HostId{1}, mb100, 0}, {paths});
  fluid.add_flow({HostId{0}, HostId{1}, mb100, 4 * units::kMillisecond},
                 {paths});
  fluid.run();

  ASSERT_EQ(fluid.results().size(), 2u);
  const auto& a = fluid.results()[0];
  const auto& b = fluid.results()[1];
  EXPECT_NEAR(units::to_milliseconds(a.end), 12.0, 0.01);
  EXPECT_NEAR(units::to_milliseconds(b.end), 16.0, 0.01);
  EXPECT_NEAR(fluid.delivered_bytes(), 2.0 * mb100, 1.0);
}

TEST(FluidSimulator, ZeroByteAndUnroutableFlowsComplete) {
  const auto net = topo::build_network(
      fat_tree_spec(topo::NetworkType::kSerialLow, 16, 1));
  FluidSimulator fluid(net, {});
  fluid.add_flow({HostId{0}, HostId{1}, 0, units::kMicrosecond});
  // Explicitly pinned to no paths at all: completes with zero duration.
  fluid.add_flow({HostId{2}, HostId{3}, 1000, 0}, {});
  fluid.run();
  ASSERT_EQ(fluid.results().size(), 2u);
  EXPECT_EQ(fluid.results()[0].subflows, 0);
  for (const auto& r : fluid.results()) EXPECT_EQ(r.end, r.start);
}

// The route cache is an optimization, never a behavior change: for every
// scheme, a simulator with the cache enabled, one with the cache in
// pass-through mode (PNET_ROUTE_CACHE=off equivalent), and one fed
// explicitly pinned choose_paths() results must produce byte-identical
// flow results. This pins FluidSimulator::route() to choose_paths().
TEST(FluidSimulator, RouteCacheOnOffAndPinnedPathsAgree) {
  const auto net = topo::build_network(
      fat_tree_spec(topo::NetworkType::kParallelHomogeneous, 16, 2));
  for (const RouteScheme scheme :
       {RouteScheme::kEcmpPlaneHash, RouteScheme::kShortestPlane,
        RouteScheme::kKspMultipath}) {
    FsimConfig config;
    config.scheme = scheme;
    config.k = 4;

    Rng rng(11);
    std::vector<FlowSpec> specs;
    for (int i = 0; i < 200; ++i) {
      const HostId src{static_cast<std::int32_t>(rng.next_below(16))};
      HostId dst{static_cast<std::int32_t>(rng.next_below(16))};
      if (dst == src) dst = HostId{(dst.v + 1) % 16};
      specs.push_back({src, dst, 1'000'000 + 1000 * rng.next_below(64),
                       static_cast<SimTime>(i) * units::kMicrosecond});
    }

    FluidSimulator cached(
        net, config, std::make_shared<routing::RouteCache>(true));
    FluidSimulator uncached(
        net, config, std::make_shared<routing::RouteCache>(false));
    FluidSimulator pinned(net, config);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      cached.add_flow(specs[i]);
      uncached.add_flow(specs[i]);
      pinned.add_flow(specs[i],
                      choose_paths(net, config, specs[i].src, specs[i].dst,
                                   static_cast<std::uint64_t>(i)));
    }
    cached.run();
    uncached.run();
    pinned.run();

    ASSERT_EQ(cached.results().size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& a = cached.results()[i];
      const auto& b = uncached.results()[i];
      const auto& c = pinned.results()[i];
      EXPECT_EQ(a.end, b.end) << to_string(scheme) << " flow " << i;
      EXPECT_EQ(a.end, c.end) << to_string(scheme) << " flow " << i;
      EXPECT_EQ(a.subflows, b.subflows);
      EXPECT_EQ(a.subflows, c.subflows);
      EXPECT_EQ(a.hops, b.hops);
      EXPECT_EQ(a.hops, c.hops);
    }
    // The cache actually cached: candidate sets are per-pair, so with 200
    // flows over <=240 pairs the enabled cache must see some reuse, and
    // the pass-through cache must see none.
    EXPECT_GT(cached.route_cache().stats().hits, 0u) << to_string(scheme);
    EXPECT_EQ(uncached.route_cache().stats().hits, 0u);
  }
}

// Steady-state permutation: the fluid max-min *minimum* rate must equal
// the LP max-concurrent-flow alpha (same fixed single path per commodity,
// demand = one plane's link rate). GK is an epsilon-approximation, so the
// tolerance is a few percent.
void expect_min_rate_matches_alpha(topo::NetworkType type, int hosts,
                                   int planes) {
  const auto net = topo::build_network(fat_tree_spec(type, hosts, planes));
  FsimConfig config;
  config.scheme = RouteScheme::kEcmpPlaneHash;

  Rng rng(3);
  const auto pairs = workload::permutation_pairs(net.num_hosts(), rng);
  const lp::LinkIndex index(net);
  std::vector<lp::Commodity> commodities;
  FluidSimulator fluid(net, config);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    auto paths = choose_paths(net, config, pairs[i].first, pairs[i].second,
                              static_cast<std::uint64_t>(i));
    ASSERT_EQ(paths.size(), 1u);
    lp::Commodity commodity;
    commodity.demand = net.plane(0).link_rate_bps;
    commodity.paths.push_back(index.to_global(paths.front()));
    commodities.push_back(std::move(commodity));
    fluid.add_flow({pairs[i].first, pairs[i].second, 1'000'000'000, 0},
                   std::move(paths));
  }
  fluid.run_until(0);  // admit everything, settle rates
  ASSERT_EQ(fluid.active_flows(), static_cast<int>(pairs.size()));

  lp::McfOptions options;
  options.epsilon = 0.02;
  const auto lp_result =
      lp::max_concurrent_flow(index.capacity(), commodities, options);
  ASSERT_GT(lp_result.alpha, 0.0);
  ASSERT_LE(lp_result.alpha, 1.0 + 1e-9);

  const double min_frac =
      fluid.min_rate_bps() / net.plane(0).link_rate_bps;
  EXPECT_NEAR(min_frac, lp_result.alpha, 0.05 * lp_result.alpha)
      << topo::to_string(type) << " hosts=" << hosts;
  // Max-min can only improve on the LP's common fraction for the rest of
  // the flows; the total must dominate alpha * total demand.
  EXPECT_GE(fluid.total_rate_bps(),
            lp_result.alpha * net.plane(0).link_rate_bps *
                static_cast<double>(pairs.size()) * (1.0 - 0.05));
}

TEST(FsimCrossLp, PermutationMinRateMatchesAlphaK4Serial) {
  expect_min_rate_matches_alpha(topo::NetworkType::kSerialLow, 16, 1);
}

TEST(FsimCrossLp, PermutationMinRateMatchesAlphaK4Parallel) {
  expect_min_rate_matches_alpha(topo::NetworkType::kParallelHomogeneous, 16,
                                4);
}

TEST(FsimCrossLp, PermutationMinRateMatchesAlphaK8Serial) {
  expect_min_rate_matches_alpha(topo::NetworkType::kSerialLow, 128, 1);
}

TEST(FsimCrossLp, PermutationMinRateMatchesAlphaK8Parallel) {
  expect_min_rate_matches_alpha(topo::NetworkType::kParallelHomogeneous, 128,
                                4);
}

// FCT cross-validation against the packet simulator: identical pinned
// paths and start times in both engines, bulk 50 MB flows (slow start and
// queueing delay are then a small fraction of the FCT). The fluid model
// has no slow start, no ACK-path load and no retransmits, so means diverge
// by several percent; 15% is the documented envelope (DESIGN.md). The
// workloads keep every link below full saturation — when a lone packet-sim
// flow tries to run a link at exactly 100%, foreign ACK streams (~2.7%
// reverse-path load) push it into a loss/RTO cycle no fluid model
// represents; that divergence is documented, not asserted against.
void expect_fct_tracks_packet_sim(
    const topo::NetworkSpec& spec,
    const std::vector<FlowSpec>& specs,
    const std::vector<std::vector<routing::Path>>& paths) {
  const auto net = topo::build_network(spec);
  FluidSimulator fluid(net, {});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    fluid.add_flow(specs[i], paths[i]);
  }
  fluid.run();
  const std::vector<double> fluid_fcts = fluid.fct_us();

  core::PolicyConfig policy;
  sim::SimConfig sim_config;
  sim_config.queue_buffer_bytes = 400 * 1500;  // bulk-transfer buffers
  core::SimHarness harness({.spec = spec, .policy = policy, .sim_config = sim_config});
  std::vector<double> packet_fcts;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    harness.factory().tcp_flow(
        specs[i].src, specs[i].dst, paths[i].front(), specs[i].bytes,
        specs[i].start, [&packet_fcts](const sim::FlowRecord& r) {
          packet_fcts.push_back(units::to_microseconds(r.end - r.start));
        });
  }
  harness.run();
  ASSERT_EQ(packet_fcts.size(), fluid_fcts.size());

  auto mean = [](const std::vector<double>& v) {
    RunningStats s;
    for (double x : v) s.add(x);
    return s.mean();
  };
  const double fluid_mean = mean(fluid_fcts);
  const double packet_mean = mean(packet_fcts);
  EXPECT_NEAR(fluid_mean, packet_mean, 0.15 * packet_mean)
      << "fluid " << fluid_mean << " us vs packet " << packet_mean << " us";
}

TEST(FsimCrossPacket, PermutationFctTracksPacketSimSerial) {
  // k=4 serial fat tree permutation: single-path ECMP collisions make the
  // fabric links genuine shared bottlenecks.
  const auto spec = fat_tree_spec(topo::NetworkType::kSerialLow, 16, 1);
  const auto net = topo::build_network(spec);
  FsimConfig config;
  Rng rng(5);
  std::vector<FlowSpec> specs;
  std::vector<std::vector<routing::Path>> paths;
  for (const auto& [src, dst] :
       workload::permutation_pairs(net.num_hosts(), rng)) {
    const auto i = static_cast<std::uint64_t>(specs.size());
    paths.push_back(choose_paths(net, config, src, dst, i));
    specs.push_back({src, dst, 50'000'000,
                     static_cast<SimTime>(
                         rng.next_below(10 * units::kMicrosecond))});
  }
  expect_fct_tracks_packet_sim(spec, specs, paths);
}

TEST(FsimCrossPacket, SharedBottleneckFctTracksPacketSimParallel) {
  // 4-plane fat tree, two senders per receiver pinned to the same plane:
  // each receiver's plane downlink is a 2-way shared bottleneck, sender
  // links run at half rate, and every flow exercises the multi-plane path
  // machinery.
  const auto spec =
      fat_tree_spec(topo::NetworkType::kParallelHomogeneous, 16, 4);
  const auto net = topo::build_network(spec);
  Rng rng(7);
  std::vector<FlowSpec> specs;
  std::vector<std::vector<routing::Path>> paths;
  for (int r = 0; r < 8; ++r) {
    for (const int src : {r, (r + 1) % 8}) {
      const auto i = static_cast<std::uint64_t>(specs.size());
      auto ecmp = routing::ecmp_paths_in_plane(net, r % 4, HostId{src},
                                               HostId{8 + r}, 64);
      ASSERT_FALSE(ecmp.empty());
      const int pick = routing::ecmp_pick(mix64(i * 77 + 5),
                                          static_cast<int>(ecmp.size()));
      paths.push_back({ecmp[static_cast<std::size_t>(pick)]});
      specs.push_back({HostId{src}, HostId{8 + r}, 50'000'000,
                       static_cast<SimTime>(
                           rng.next_below(10 * units::kMicrosecond))});
    }
  }
  expect_fct_tracks_packet_sim(spec, specs, paths);
}

// ----------------------------------------------------------------- sweep

TEST(Sweep, SeedsAreDeterministicAndDecorrelated) {
  EXPECT_EQ(util::job_seed(1, 0), util::job_seed(1, 0));
  EXPECT_NE(util::job_seed(1, 0), util::job_seed(1, 1));
  EXPECT_NE(util::job_seed(1, 0), util::job_seed(2, 0));
}

TEST(Sweep, ResultsIdenticalAcrossThreadCounts) {
  std::vector<std::uint64_t> jobs;
  for (std::uint64_t i = 0; i < 8; ++i) jobs.push_back(i);
  auto job_fn = [](const std::uint64_t& job) {
    const auto net = topo::build_network(
        fat_tree_spec(topo::NetworkType::kParallelHomogeneous, 16, 4,
                      util::job_seed(9, job)));
    FluidSimulator fluid(net, {});
    Rng rng(util::job_seed(9, job));
    for (const auto& [src, dst] :
         workload::permutation_pairs(net.num_hosts(), rng)) {
      fluid.add_flow({src, dst, 1'000'000,
                      static_cast<SimTime>(
                          rng.next_below(10 * units::kMicrosecond))});
    }
    fluid.run();
    return fluid.fct_us();
  };
  const auto serial = util::parallel_map(jobs, job_fn, 1);
  const auto threaded = util::parallel_map(jobs, job_fn, 4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].size(), threaded[i].size()) << "job " << i;
    for (std::size_t f = 0; f < serial[i].size(); ++f) {
      EXPECT_EQ(serial[i][f], threaded[i][f]) << "job " << i << " flow " << f;
    }
  }
}

// Scale guard: a k=8 fat tree (128 hosts) with thousands of flows must be
// quick — the whole point of the fluid model. (The k=16 / 10k-flow demo
// lives in bench_fsim_crossval; this is the CI-sized version.)
TEST(FluidSimulator, ThousandsOfFlowsRunQuickly) {
  const auto net = topo::build_network(
      fat_tree_spec(topo::NetworkType::kParallelHomogeneous, 128, 4));
  FluidSimulator fluid(net, {});
  Rng rng(11);
  int flows = 0;
  for (int round = 0; round < 16; ++round) {
    for (const auto& [src, dst] :
         workload::permutation_pairs(net.num_hosts(), rng)) {
      fluid.add_flow({src, dst, 2'000'000,
                      static_cast<SimTime>(round) * 50 * units::kMicrosecond +
                          static_cast<SimTime>(
                              rng.next_below(20 * units::kMicrosecond))});
      ++flows;
    }
  }
  fluid.run();
  EXPECT_EQ(static_cast<int>(fluid.results().size()), flows);
  EXPECT_GE(flows, 2000);
}

}  // namespace
}  // namespace pnet::fsim
