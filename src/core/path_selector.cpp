#include "core/path_selector.hpp"

#include <cassert>

#include "routing/ecmp.hpp"
#include "util/rng.hpp"

namespace pnet::core {

namespace {

constexpr util::EnumName<RoutingPolicy> kPolicyNames[] = {
    {RoutingPolicy::kEcmp, "ecmp"},
    {RoutingPolicy::kRoundRobin, "round-robin"},
    {RoutingPolicy::kShortestPlane, "shortest-plane"},
    {RoutingPolicy::kKspMultipath, "ksp-multipath"},
    {RoutingPolicy::kSizeThreshold, "size-threshold"},
};

}  // namespace

util::EnumNames<RoutingPolicy> name_table(RoutingPolicy) {
  return kPolicyNames;
}
std::string to_string(RoutingPolicy policy) { return util::to_name(policy); }

PathSelector::PathSelector(const topo::ParallelNetwork& net,
                           PolicyConfig config,
                           std::shared_ptr<routing::RouteCache> cache)
    : net_(net), config_(std::move(config)), cache_(std::move(cache)),
      plane_failed_(static_cast<std::size_t>(net.num_planes()), false) {
  if (cache_ == nullptr) cache_ = std::make_shared<routing::RouteCache>();
}

void PathSelector::set_plane_failed(int plane, bool failed) {
  // Plane health is a selection-time filter, not a cache event: cached path
  // sets stay intact (bit-identical to the cache-less baseline) and plane
  // flaps cost nothing to recover from.
  plane_failed_[static_cast<std::size_t>(plane)] = failed;
}

bool PathSelector::plane_usable(int plane) const {
  if (plane_failed_[static_cast<std::size_t>(plane)]) return false;
  if (config_.allowed_planes.empty()) return true;
  for (int allowed : config_.allowed_planes) {
    if (allowed == plane) return true;
  }
  return false;
}

std::vector<int> PathSelector::usable_planes() const {
  std::vector<int> out;
  for (int p = 0; p < net_.num_planes(); ++p) {
    if (plane_usable(p)) out.push_back(p);
  }
  return out;
}

void PathSelector::set_plane_weights(std::vector<double> weights) {
  plane_weights_ = std::move(weights);
}

routing::RouteSnapshot PathSelector::ksp_paths(HostId src, HostId dst) {
  // Keep k candidates per plane (not just k overall) with per-pair
  // randomized tie-breaks, so plane failures can be filtered out at
  // selection time and fat-tree ties do not collapse onto one corner.
  return cache_->lookup(
      net_, routing::RouteQuery::ksp(src, dst, config_.k,
                                     mix64(routing::pair_key(src, dst) ^
                                           0xD1CE),
                                     config_.k * net_.num_planes()));
}

routing::RouteSnapshot PathSelector::spp_paths(HostId src, HostId dst) {
  return cache_->lookup(net_,
                        routing::RouteQuery::shortest_per_plane(src, dst));
}

routing::RouteSnapshot PathSelector::ecmp_paths(HostId src, HostId dst,
                                                int plane) {
  // Every single-path policy hashes among the plane's equal-cost shortest
  // paths (what a real ECMP dataplane does); enumerated once per pair and
  // plane, shared through the route cache.
  return cache_->lookup(net_, routing::RouteQuery::ecmp_plane(
                                  src, dst, plane, config_.ecmp_path_cap));
}

std::vector<routing::Path> PathSelector::shortest_plane_pick(
    HostId src, HostId dst, std::uint64_t flow_key) {
  // The "low-latency" single-path interface: restrict to the planes tied at
  // the global minimum hop count, then hash the flow over the union of
  // their equal-cost shortest paths. On heterogeneous P-Nets this usually
  // singles out one plane (the latency win of §5.2.1); on homogeneous ones
  // every plane ties, so flows spread plane-wide instead of piling onto
  // plane 0.
  const routing::RouteSnapshot spp = spp_paths(src, dst);
  int best_hops = -1;
  std::vector<routing::PathView> pool;
  routing::PathView fallback;
  bool have_fallback = false;
  for (std::size_t i = 0; i < spp.size(); ++i) {
    const routing::PathView candidate = spp.view(i);
    if (!plane_usable(candidate.plane())) continue;
    if (!have_fallback) {
      fallback = candidate;
      have_fallback = true;
    }
    if (best_hops < 0) best_hops = candidate.hops();
    if (candidate.hops() != best_hops) break;  // sorted by hops
    const routing::RouteSnapshot in_plane =
        ecmp_paths(src, dst, candidate.plane());
    for (std::size_t j = 0; j < in_plane.size(); ++j) {
      pool.push_back(in_plane.view(j));
    }
  }
  if (pool.empty()) {
    return have_fallback ? std::vector<routing::Path>{fallback.materialize()}
                         : std::vector<routing::Path>{};
  }
  const int pick =
      routing::ecmp_pick(flow_key, static_cast<int>(pool.size()));
  return {pool[static_cast<std::size_t>(pick)].materialize()};
}

std::vector<routing::Path> PathSelector::select(HostId src, HostId dst,
                                                std::uint64_t bytes,
                                                std::uint64_t flow_key) {
  const std::vector<int> usable = usable_planes();
  if (usable.empty()) return {};

  // Filters the cached cross-plane KSP pool to usable planes, first k.
  auto usable_ksp = [&] {
    const routing::RouteSnapshot ksp = ksp_paths(src, dst);
    std::vector<routing::Path> out;
    for (std::size_t i = 0; i < ksp.size(); ++i) {
      const routing::PathView path = ksp.view(i);
      if (plane_usable(path.plane())) out.push_back(path.materialize());
      if (static_cast<int>(out.size()) == config_.k) break;
    }
    return out;
  };

  switch (config_.policy) {
    case RoutingPolicy::kEcmp: {
      // Hash onto a plane, then onto one equal-cost path within it — what a
      // standard ECMP dataplane does with the host applying the same idea
      // across planes.
      const int plane = usable[routing::weighted_pick(
          usable, plane_weights_, mix64(flow_key) ^ 0x9E37)];
      const routing::RouteSnapshot in_plane = ecmp_paths(src, dst, plane);
      if (in_plane.empty()) return {};
      const int pick = routing::ecmp_pick(
          flow_key, static_cast<int>(in_plane.size()));
      return {in_plane.view(static_cast<std::size_t>(pick)).materialize()};
    }
    case RoutingPolicy::kRoundRobin: {
      // Cycle usable planes per source host (hash-offset start); within
      // the plane, hash among equal-cost shortest paths.
      const auto it = round_robin_
                          .try_emplace(src.v,
                                       mix64(static_cast<std::uint64_t>(
                                           static_cast<std::uint32_t>(src.v))))
                          .first;
      // With controller weights installed, the per-host cycle gives way to
      // a weighted hash of the same sequence number: still host-local and
      // deterministic, but biased toward the lighter planes.
      const std::uint64_t seq = it->second++;
      const std::size_t slot =
          plane_weights_.empty()
              ? static_cast<std::size_t>(seq % usable.size())
              : routing::weighted_pick(usable, plane_weights_, mix64(seq));
      const int plane = usable[slot];
      const routing::RouteSnapshot in_plane = ecmp_paths(src, dst, plane);
      if (in_plane.empty()) return {};
      const int pick = routing::ecmp_pick(
          flow_key, static_cast<int>(in_plane.size()));
      return {in_plane.view(static_cast<std::size_t>(pick)).materialize()};
    }
    case RoutingPolicy::kShortestPlane:
      return shortest_plane_pick(src, dst, flow_key);
    case RoutingPolicy::kKspMultipath:
      return usable_ksp();
    case RoutingPolicy::kSizeThreshold: {
      if (bytes > config_.multipath_cutoff_bytes) {
        auto multi = usable_ksp();
        if (multi.size() > 1) return multi;
      }
      return shortest_plane_pick(src, dst, flow_key);  // small flows
    }
  }
  return {};
}

std::vector<routing::Path> PathSelector::repin(HostId src, HostId dst,
                                               std::uint64_t bytes,
                                               int target_plane) {
  (void)bytes;  // reserved for size-aware repin policies
  if (target_plane < 0 || target_plane >= net_.num_planes() ||
      !plane_usable(target_plane)) {
    return {};
  }
  const routing::RouteSnapshot in_plane = ecmp_paths(src, dst, target_plane);
  if (in_plane.empty()) return {};
  const int pick = routing::ecmp_pick(
      routing::repin_key(src, dst, repath_counter_++),
      static_cast<int>(in_plane.size()));
  return {in_plane.view(static_cast<std::size_t>(pick)).materialize()};
}

void PathSelector::enable_repath(sim::FlowFactory& factory) {
  factory.set_repath_provider(
      [this](HostId src, HostId dst, int suspect_plane,
             std::uint64_t bytes) -> std::vector<routing::Path> {
        const auto p = static_cast<std::size_t>(suspect_plane);
        // The suspect plane is off-limits for this pick only: a transport-
        // level suspicion (RTOs) is not a confirmed plane failure, so it
        // must not stick for unrelated future flows.
        const bool was_failed = plane_failed_[p];
        plane_failed_[p] = true;
        auto paths = select(src, dst, bytes,
                            mix64(routing::pair_key(src, dst) ^
                                  (0xFA17 + (repath_counter_++ << 17))));
        plane_failed_[p] = was_failed;
        return paths;
      });
}

workload::FlowStarter PathSelector::make_starter(sim::FlowFactory& factory) {
  return [this, &factory](HostId src, HostId dst, std::uint64_t bytes,
                          SimTime start,
                          sim::FlowFactory::FlowCallback on_complete) {
    const std::uint64_t flow_key =
        mix64(routing::pair_key(src, dst) ^
              (static_cast<std::uint64_t>(factory.flows_created()) << 17));
    auto paths = select(src, dst, bytes, flow_key);
    assert(!paths.empty() && "no path between hosts");
    if (paths.size() == 1) {
      factory.tcp_flow(src, dst, paths.front(), bytes, start,
                       std::move(on_complete));
    } else {
      factory.mptcp_flow(src, dst, paths, bytes, start,
                         std::move(on_complete), config_.coupling);
    }
  };
}

}  // namespace pnet::core
