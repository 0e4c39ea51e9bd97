#include "topo/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pnet::topo {

namespace {

constexpr util::EnumName<NetworkType> kNetworkTypeNames[] = {
    {NetworkType::kSerialLow, "serial-low-bw"},
    {NetworkType::kParallelHomogeneous, "parallel-homogeneous"},
    {NetworkType::kParallelHeterogeneous, "parallel-heterogeneous"},
    {NetworkType::kSerialHigh, "serial-high-bw"},
};
constexpr util::EnumName<TopoKind> kTopoKindNames[] = {
    {TopoKind::kFatTree, "fat-tree"},
    {TopoKind::kJellyfish, "jellyfish"},
    {TopoKind::kXpander, "xpander"},
};

}  // namespace

util::EnumNames<NetworkType> name_table(NetworkType) {
  return kNetworkTypeNames;
}
util::EnumNames<TopoKind> name_table(TopoKind) { return kTopoKindNames; }
std::string to_string(NetworkType type) { return util::to_name(type); }
std::string to_string(TopoKind kind) { return util::to_name(kind); }

namespace {

struct JellyfishShape {
  int switches;
  int degree;
  int hosts_per_switch;
};

/// Picks a Jellyfish shape for a host target. Mirrors the Jellyfish paper's
/// full-bisection guidance: with k-port switches, r = ceil(2k/3) network
/// ports and k - r host ports. We derive a shape whose host count is >= the
/// target and whose switch count keeps n*r even.
JellyfishShape derive_jellyfish_shape(const NetworkSpec& spec) {
  if (spec.jf_switches > 0) {
    return {spec.jf_switches, spec.jf_degree, spec.jf_hosts_per_switch};
  }
  // Default split for a 14-port chip (the paper's 686-host exemplar is a
  // k=14 fat tree equivalent): 4 host-facing ports and 10 network ports per
  // switch. Full throughput on a random regular graph needs roughly
  // degree >= hosts_per_switch * average-path-length (Jellyfish paper's
  // sizing guidance, r ~ 2k/3 of the chip's ports plus margin), which a
  // 1:2.5 split satisfies at the scales used here.
  const int hosts_per_switch = 4;
  const int degree = 10;
  int switches =
      (spec.hosts + hosts_per_switch - 1) / hosts_per_switch;
  if (switches <= degree) switches = degree + 1;
  if (switches * degree % 2 != 0) ++switches;
  return {switches, degree, hosts_per_switch};
}

Plane build_fat_tree_plane(const NetworkSpec& spec, double rate) {
  FatTreeConfig config;
  config.k = fat_tree_k_for_hosts(spec.hosts);
  config.link_rate_bps = rate;
  config.host_link_latency = spec.host_latency;
  config.fabric_link_latency = spec.fabric_latency;
  FatTree ft = build_fat_tree(config);

  Plane plane;
  plane.graph = std::move(ft.graph);
  plane.host_nodes = std::move(ft.host_nodes);
  plane.switch_nodes = std::move(ft.edge_switches);
  plane.switch_nodes.insert(plane.switch_nodes.end(),
                            ft.agg_switches.begin(), ft.agg_switches.end());
  plane.switch_nodes.insert(plane.switch_nodes.end(),
                            ft.core_switches.begin(),
                            ft.core_switches.end());
  plane.link_rate_bps = rate;
  return plane;
}

/// Picks an Xpander shape for a host target: degree 8, 4 hosts per switch,
/// and the smallest lift whose (degree + 1) * lift switches hold the hosts.
XpanderConfig derive_xpander_shape(const NetworkSpec& spec) {
  XpanderConfig config;
  config.network_degree = 8;
  config.hosts_per_switch = 4;
  const int switches_needed =
      (spec.hosts + config.hosts_per_switch - 1) / config.hosts_per_switch;
  config.lift = (switches_needed + config.network_degree) /
                (config.network_degree + 1);
  return config;
}

Plane build_xpander_plane(const NetworkSpec& spec, double rate,
                          std::uint64_t seed) {
  XpanderConfig config = derive_xpander_shape(spec);
  config.link_rate_bps = rate;
  config.host_link_latency = spec.host_latency;
  config.fabric_link_latency = spec.fabric_latency;
  config.seed = seed;
  Xpander x = build_xpander(config);

  Plane plane;
  plane.graph = std::move(x.graph);
  plane.host_nodes = std::move(x.host_nodes);
  plane.switch_nodes = std::move(x.switch_nodes);
  plane.link_rate_bps = rate;
  return plane;
}

Plane build_jellyfish_plane(const NetworkSpec& spec, double rate,
                            std::uint64_t seed) {
  const JellyfishShape shape = derive_jellyfish_shape(spec);
  JellyfishConfig config;
  config.num_switches = shape.switches;
  config.network_degree = shape.degree;
  config.hosts_per_switch = shape.hosts_per_switch;
  config.link_rate_bps = rate;
  config.host_link_latency = spec.host_latency;
  config.fabric_link_latency = spec.fabric_latency;
  config.seed = seed;
  Jellyfish jf = build_jellyfish(config);

  Plane plane;
  plane.graph = std::move(jf.graph);
  plane.host_nodes = std::move(jf.host_nodes);
  plane.switch_nodes = std::move(jf.switch_nodes);
  plane.link_rate_bps = rate;
  return plane;
}

}  // namespace

int num_planes(const NetworkSpec& spec) {
  const bool parallel = spec.type == NetworkType::kParallelHomogeneous ||
                        spec.type == NetworkType::kParallelHeterogeneous;
  return parallel ? spec.parallelism : 1;
}

std::int64_t plane_nodes(const NetworkSpec& spec) {
  switch (spec.topo) {
    case TopoKind::kFatTree: {
      const std::int64_t k = fat_tree_k_for_hosts(spec.hosts);
      return k * k * k / 4 + 5 * k * k / 4;
    }
    case TopoKind::kJellyfish: {
      const JellyfishShape shape = derive_jellyfish_shape(spec);
      return std::int64_t{shape.switches} *
             (1 + std::max(shape.hosts_per_switch, 0));
    }
    case TopoKind::kXpander: {
      const XpanderConfig shape = derive_xpander_shape(spec);
      return std::int64_t{shape.lift} * (shape.network_degree + 1) *
             (1 + shape.hosts_per_switch);
    }
  }
  return 0;
}

ParallelNetwork build_network(const NetworkSpec& spec) {
  if (spec.parallelism < 1) {
    throw std::invalid_argument("parallelism must be >= 1");
  }

  const int num_planes = topo::num_planes(spec);
  const double rate = spec.type == NetworkType::kSerialHigh
                          ? spec.base_rate_bps * spec.parallelism
                          : spec.base_rate_bps;

  std::vector<Plane> planes;
  planes.reserve(static_cast<std::size_t>(num_planes));
  for (int p = 0; p < num_planes; ++p) {
    // Homogeneous planes reuse the base seed: every plane is the *same*
    // instantiation, as in a replicated deployment. Heterogeneous planes
    // get independent seeds, which is the whole point of section 3.2.
    const std::uint64_t seed =
        spec.type == NetworkType::kParallelHeterogeneous
            ? spec.seed + static_cast<std::uint64_t>(p) * 0x51ED2701ULL
            : spec.seed;
    switch (spec.topo) {
      case TopoKind::kFatTree:
        planes.push_back(build_fat_tree_plane(spec, rate));
        break;
      case TopoKind::kJellyfish:
        planes.push_back(build_jellyfish_plane(spec, rate, seed));
        break;
      case TopoKind::kXpander:
        planes.push_back(build_xpander_plane(spec, rate, seed));
        break;
    }
  }

  int hosts_per_rack = 0;
  switch (spec.topo) {
    case TopoKind::kFatTree:
      hosts_per_rack = fat_tree_k_for_hosts(spec.hosts) / 2;
      break;
    case TopoKind::kJellyfish:
      hosts_per_rack = derive_jellyfish_shape(spec).hosts_per_switch;
      break;
    case TopoKind::kXpander:
      hosts_per_rack = 4;
      break;
  }
  return ParallelNetwork(spec, std::move(planes), hosts_per_rack);
}

}  // namespace pnet::topo
