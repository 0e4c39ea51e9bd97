// P-Net end-host path selection — the paper's core contribution (§3.4, §4).
//
// The end host owns the plane/path decision in a P-Net (packets cannot
// change planes in flight), so this class is where every policy the paper
// studies lives:
//   * kEcmp          — hash the flow onto one plane, and onto one equal-cost
//                      path inside it (the naive baseline of §4 that wastes
//                      parallel capacity on sparse traffic);
//   * kRoundRobin    — cycle planes per flow, shortest path within the
//                      plane (the §3.4 default load balancer);
//   * kShortestPlane — the "low-latency" interface: single path on the
//                      plane offering the fewest hops (heterogeneous P-Nets'
//                      latency win, §5.2.1);
//   * kKspMultipath  — MPTCP over the K globally-shortest paths across all
//                      planes (§4's recommended transport);
//   * kSizeThreshold — the empirical §5.1.2 policy: small flows single-path
//                      on the shortest plane, bulk flows K-way MPTCP.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "routing/plane_paths.hpp"
#include "routing/route_cache.hpp"
#include "sim/network.hpp"
#include "topo/parallel.hpp"
#include "util/enum_names.hpp"
#include "workload/apps.hpp"

namespace pnet::core {

enum class RoutingPolicy : std::uint8_t {
  kEcmp,
  kRoundRobin,
  kShortestPlane,
  kKspMultipath,
  kSizeThreshold,
};

[[nodiscard]] std::string to_string(RoutingPolicy policy);
/// The policy-name table shared by every bench, config and wire surface, so
/// ablations name policies identically everywhere (util::from_string and
/// util::enum_names walk it too).
[[nodiscard]] util::EnumNames<RoutingPolicy> name_table(RoutingPolicy);

struct PolicyConfig {
  RoutingPolicy policy = RoutingPolicy::kRoundRobin;
  /// Multipath degree for kKspMultipath / the bulk side of kSizeThreshold.
  int k = 8;
  /// kSizeThreshold cutoff: flows strictly larger than this use multipath.
  /// 100 MB is the paper's empirical small/large boundary (§5.1.2).
  std::uint64_t multipath_cutoff_bytes = 100'000'000;
  /// Cap on enumerated equal-cost paths per plane for kEcmp.
  int ecmp_path_cap = 64;
  sim::Coupling coupling = sim::Coupling::kLia;
  /// Planes this selector may use (empty = all). The §7 performance-
  /// isolation mechanism: pin a traffic class/tenant to its own plane(s)
  /// by giving it a selector restricted to them.
  std::vector<int> allowed_planes;
};

class PathSelector {
 public:
  /// `cache` (optional) shares one compiled route store across selectors —
  /// e.g. every trial of an experiment cell. Without it the selector owns a
  /// private cache. Either way all path computation and per-pair caching
  /// lives in routing::RouteCache; the selector only applies policy.
  PathSelector(const topo::ParallelNetwork& net, PolicyConfig config,
               std::shared_ptr<routing::RouteCache> cache = nullptr);

  /// The paths a new flow of `bytes` should use. `flow_key` feeds the ECMP
  /// hash / round-robin sequencing; callers pass a per-flow unique value.
  /// One path => single-path TCP; several => MPTCP, one subflow per path.
  std::vector<routing::Path> select(HostId src, HostId dst,
                                    std::uint64_t bytes,
                                    std::uint64_t flow_key);

  /// Wraps this selector and a flow factory into the workload-facing flow
  /// starter: each request picks paths here, then launches TCP or MPTCP.
  workload::FlowStarter make_starter(sim::FlowFactory& factory);

  /// Marks a plane failed/recovered: the §3.4 link-status reaction. New
  /// flows avoid the plane immediately (graceful degradation); flows in
  /// flight are the transport's problem.
  void set_plane_failed(int plane, bool failed);

  /// Installs this selector as the factory's repath provider, so flows in
  /// flight stop being "the transport's problem": when a TcpSrc declares
  /// its path suspect (consecutive RTOs) or a detected plane failure forces
  /// a repath, the factory asks here for a fresh path that avoids the
  /// suspect plane on top of everything already marked failed. Returns
  /// nothing when no other plane is usable (a serial network has nowhere
  /// to go — the flow must ride out the fault on its current path).
  void enable_repath(sim::FlowFactory& factory);
  [[nodiscard]] bool plane_usable(int plane) const;

  // Actuator interface (src/control) — policy logic stops being reachable
  // only at flow-admission time.

  /// Biases the plane pick of the hash-based single-path policies (kEcmp,
  /// kRoundRobin falls back to hashing when weighted): plane p is chosen
  /// with probability weight[p] / sum over usable planes. Empty vector (the
  /// default) restores the unbiased pick — and keeps controller-off runs
  /// byte-identical to the pre-weights selector. Weights must be >= 0; an
  /// all-zero total falls back to uniform.
  void set_plane_weights(std::vector<double> weights);
  [[nodiscard]] const std::vector<double>& plane_weights() const {
    return plane_weights_;
  }

  /// Re-pins one flow onto `target_plane`: returns a single equal-cost path
  /// on that plane (hashed by an internal repin sequence so successive
  /// repins of the same pair spread over the plane's path set), or empty
  /// when the plane is unusable or has no path. The caller (the control
  /// plane, via sim::FlowFactory::repin_flows) applies it to the live
  /// transport; this method only answers the path question.
  std::vector<routing::Path> repin(HostId src, HostId dst,
                                   std::uint64_t bytes, int target_plane);

  [[nodiscard]] const PolicyConfig& config() const { return config_; }

  /// The (possibly shared) route cache — counters feed experiment reports.
  [[nodiscard]] routing::RouteCache& route_cache() { return *cache_; }

 private:
  routing::RouteSnapshot ksp_paths(HostId src, HostId dst);
  routing::RouteSnapshot spp_paths(HostId src, HostId dst);
  routing::RouteSnapshot ecmp_paths(HostId src, HostId dst, int plane);
  std::vector<routing::Path> shortest_plane_pick(HostId src, HostId dst,
                                                 std::uint64_t flow_key);
  [[nodiscard]] std::vector<int> usable_planes() const;

  const topo::ParallelNetwork& net_;
  PolicyConfig config_;
  std::shared_ptr<routing::RouteCache> cache_;
  /// Planes currently marked failed by set_plane_failed.
  std::vector<bool> plane_failed_;
  /// Controller-set plane bias; empty = unbiased (the seed behavior).
  std::vector<double> plane_weights_;
  /// Per-source round-robin counters, seeded with a per-host hash offset.
  /// A single global counter would synchronize plane choice across hosts
  /// (every m-th flow in creation order lands on the same plane), which
  /// concentrates fan-in traffic of a receiver onto one plane — exactly the
  /// pathology host-local round-robin (§3.4) avoids.
  std::unordered_map<std::int32_t, std::uint64_t> round_robin_;
  /// Sequence number feeding repath flow keys, so successive repaths of the
  /// same pair hash onto different equal-cost paths.
  std::uint64_t repath_counter_ = 0;
};

}  // namespace pnet::core
