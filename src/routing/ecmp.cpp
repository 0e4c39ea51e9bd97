#include "routing/ecmp.hpp"

#include "routing/shortest.hpp"
#include "util/rng.hpp"

namespace pnet::routing {

namespace {

void dfs_paths(const topo::Graph& g, NodeId at, NodeId dst,
               const std::vector<int>& dist_to_dst, Path& current,
               std::vector<Path>& out, int cap) {
  if (static_cast<int>(out.size()) >= cap) return;
  if (at == dst) {
    out.push_back(current);
    return;
  }
  // Hosts never forward; only the source host may be expanded.
  if (g.is_host(at) && !current.links.empty()) return;
  for (LinkId id : g.out_links(at)) {
    const NodeId v = g.link(id).dst;
    const int dv = dist_to_dst[static_cast<std::size_t>(v.v)];
    // Stay on the shortest-path DAG: each step must reduce the distance to
    // the destination by exactly one.
    if (dv == kUnreachable ||
        dv != dist_to_dst[static_cast<std::size_t>(at.v)] - 1) {
      continue;
    }
    current.links.push_back(id);
    dfs_paths(g, v, dst, dist_to_dst, current, out, cap);
    current.links.pop_back();
  }
}

}  // namespace

std::vector<Path> enumerate_shortest_paths(const topo::Graph& g, NodeId src,
                                           NodeId dst, int cap) {
  std::vector<Path> out;
  if (src == dst) return out;
  // BFS from dst over reversed edges == BFS from dst in this graph, because
  // every link has a same-latency reverse twin (duplex construction).
  const std::vector<int> dist_to_dst = bfs_hops(g, dst);
  if (dist_to_dst[static_cast<std::size_t>(src.v)] == kUnreachable) {
    return out;
  }
  Path current;
  dfs_paths(g, src, dst, dist_to_dst, current, out, cap);
  return out;
}

int ecmp_pick(std::uint64_t flow_key, int count) {
  if (count <= 1) return 0;
  return static_cast<int>(mix64(flow_key) %
                          static_cast<std::uint64_t>(count));
}

std::uint64_t repin_key(HostId src, HostId dst, std::uint64_t seq) {
  return mix64(pair_key(src, dst) ^ (0x4EB1 + (seq << 17)));
}

std::size_t weighted_pick(const std::vector<int>& usable,
                          const std::vector<double>& weights,
                          std::uint64_t key) {
  const int n = static_cast<int>(usable.size());
  if (weights.empty()) return static_cast<std::size_t>(ecmp_pick(key, n));
  auto weight_of = [&](int plane) {
    const auto i = static_cast<std::size_t>(plane);
    return (i < weights.size() && weights[i] > 0.0) ? weights[i] : 0.0;
  };
  double total = 0.0;
  for (int plane : usable) total += weight_of(plane);
  if (total <= 0.0) {  // all-zero bias: uniform fallback, never "no plane"
    return static_cast<std::size_t>(ecmp_pick(key, n));
  }
  // 53-bit hash fraction in [0, 1) scaled onto the cumulative weights —
  // deterministic in (key, weights), no RNG state.
  const double u = static_cast<double>(mix64(key) >> 11) * 0x1.0p-53 * total;
  double cum = 0.0;
  std::size_t last_positive = 0;
  for (std::size_t j = 0; j < usable.size(); ++j) {
    const double w = weight_of(usable[j]);
    if (w <= 0.0) continue;
    cum += w;
    last_positive = j;
    if (u < cum) return j;
  }
  return last_positive;  // floating-point round-off at the top end
}

}  // namespace pnet::routing
