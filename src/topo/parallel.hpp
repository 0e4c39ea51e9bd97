// Parallel Dataplane Networks (P-Nets): the paper's core topology object.
//
// A ParallelNetwork is N disjoint dataplanes. Every host exists in every
// plane (one NIC channel per plane); switches and links belong to exactly
// one plane. Packets cannot cross planes because the planes are separate
// Graph objects — the invariant is structural, not a runtime check.
//
// The four network types compared throughout section 5 map to:
//   serial low-bandwidth   -> 1 plane,  base rate
//   parallel homogeneous   -> N planes, base rate, identical instantiation
//   parallel heterogeneous -> N planes, base rate, per-plane random seeds
//   serial high-bandwidth  -> 1 plane,  N * base rate
// `parallelism()` returns N for all four so benches can normalize fairly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topo/fat_tree.hpp"
#include "topo/graph.hpp"
#include "topo/jellyfish.hpp"
#include "topo/xpander.hpp"
#include "util/enum_names.hpp"

namespace pnet::topo {

enum class TopoKind : std::uint8_t { kFatTree, kJellyfish, kXpander };

enum class NetworkType : std::uint8_t {
  kSerialLow,
  kParallelHomogeneous,
  kParallelHeterogeneous,
  kSerialHigh,
};

[[nodiscard]] std::string to_string(NetworkType type);
[[nodiscard]] std::string to_string(TopoKind kind);
/// The name tables behind to_string and util::from_string.
[[nodiscard]] util::EnumNames<NetworkType> name_table(NetworkType);
[[nodiscard]] util::EnumNames<TopoKind> name_table(TopoKind);

struct Plane {
  Graph graph;
  std::vector<NodeId> host_nodes;    // indexed by global host index
  std::vector<NodeId> switch_nodes;  // ToRs (and fabric switches)
  double link_rate_bps = 0.0;
};

struct NetworkSpec {
  TopoKind topo = TopoKind::kFatTree;
  NetworkType type = NetworkType::kSerialLow;
  /// Degree of parallelism N. For the serial types this still scopes the
  /// comparison: serial-high runs its single plane at N * base rate.
  int parallelism = 4;
  /// Target host count; fat trees round up to the next k^3/4.
  int hosts = 128;
  double base_rate_bps = 100e9;
  SimTime host_latency = units::kMicrosecond / 2;
  SimTime fabric_latency = units::kMicrosecond;
  std::uint64_t seed = 1;
  /// Jellyfish shape; 0 means "derive from hosts" (hosts_per_switch ~= r/2
  /// oversubscription-free split used in the Jellyfish paper).
  int jf_switches = 0;
  int jf_degree = 0;
  int jf_hosts_per_switch = 0;
};

class ParallelNetwork {
 public:
  ParallelNetwork(NetworkSpec spec, std::vector<Plane> planes,
                  int hosts_per_rack)
      : spec_(spec), planes_(std::move(planes)),
        hosts_per_rack_(hosts_per_rack) {}

  [[nodiscard]] const NetworkSpec& spec() const { return spec_; }
  [[nodiscard]] int num_planes() const {
    return static_cast<int>(planes_.size());
  }
  /// N: the factor the experiment scales by (see file comment).
  [[nodiscard]] int parallelism() const { return spec_.parallelism; }
  [[nodiscard]] int num_hosts() const {
    return static_cast<int>(planes_.front().host_nodes.size());
  }
  [[nodiscard]] const Plane& plane(int index) const {
    return planes_[static_cast<std::size_t>(index)];
  }
  [[nodiscard]] NodeId host_node(int plane, HostId host) const {
    return planes_[static_cast<std::size_t>(plane)]
        .host_nodes[static_cast<std::size_t>(host.v)];
  }
  [[nodiscard]] int hosts_per_rack() const { return hosts_per_rack_; }
  [[nodiscard]] int num_racks() const {
    return num_hosts() / hosts_per_rack_;
  }
  [[nodiscard]] int rack_of_host(HostId host) const {
    return host.v / hosts_per_rack_;
  }
  /// Total host uplink capacity (all planes), bits/second.
  [[nodiscard]] double host_uplink_bps() const {
    double total = 0.0;
    for (const auto& p : planes_) total += p.link_rate_bps;
    return total;
  }

 private:
  NetworkSpec spec_;
  std::vector<Plane> planes_;
  int hosts_per_rack_;
};

/// Builds one of the four section-5 network types.
ParallelNetwork build_network(const NetworkSpec& spec);

/// The planes build_network(spec) builds: `parallelism` for the parallel
/// types, one for the serial ones.
[[nodiscard]] int num_planes(const NetworkSpec& spec);

/// The nodes (hosts and switches) of one plane of build_network(spec),
/// computed from the spec alone, so that a size cap can be checked before
/// anything is built. `spec.hosts` must be small enough for a fat tree's
/// k^3 to fit an int, as build_network itself requires.
[[nodiscard]] std::int64_t plane_nodes(const NetworkSpec& spec);

}  // namespace pnet::topo
