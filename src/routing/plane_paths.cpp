#include "routing/plane_paths.hpp"

#include <algorithm>
#include <tuple>

#include "routing/ecmp.hpp"
#include "routing/shortest.hpp"
#include "routing/yen.hpp"

namespace pnet::routing {

std::vector<Path> ksp_across_planes(const topo::ParallelNetwork& net,
                                    HostId src, HostId dst, int k,
                                    std::uint64_t tiebreak_seed,
                                    int total_cap) {
  if (total_cap <= 0) total_cap = k;
  // (hops, rank within plane, plane, path): sorting by this tuple yields
  // globally shortest first with round-robin across planes at equal length.
  std::vector<std::tuple<int, int, int>> order;
  std::vector<Path> pool;

  for (int p = 0; p < net.num_planes(); ++p) {
    const topo::Graph& g = net.plane(p).graph;
    LinkWeights jitter;
    if (tiebreak_seed != 0) {
      jitter = jittered_unit_weights(
          g, tiebreak_seed + static_cast<std::uint64_t>(p) * 0x1F3D5B79ULL);
    }
    auto paths = k_shortest_paths(g, net.host_node(p, src),
                                  net.host_node(p, dst), k,
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
  out.reserve(static_cast<std::size_t>(total_cap));
  for (std::size_t i = 0;
       i < index.size() && static_cast<int>(out.size()) < total_cap; ++i) {
    out.push_back(std::move(pool[index[i]]));
  }
  return out;
}

std::vector<Path> shortest_per_plane(const topo::ParallelNetwork& net,
                                     HostId src, HostId dst) {
  std::vector<Path> out;
  for (int p = 0; p < net.num_planes(); ++p) {
    const topo::Graph& g = net.plane(p).graph;
    auto path = shortest_path(g, net.host_node(p, src),
                              net.host_node(p, dst));
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

std::vector<Path> ecmp_paths_in_plane(const topo::ParallelNetwork& net,
                                      int plane, HostId src, HostId dst,
                                      int cap) {
  const topo::Graph& g = net.plane(plane).graph;
  auto paths = enumerate_shortest_paths(g, net.host_node(plane, src),
                                        net.host_node(plane, dst), cap);
  for (auto& p : paths) p.plane = plane;
  return paths;
}

}  // namespace pnet::routing
