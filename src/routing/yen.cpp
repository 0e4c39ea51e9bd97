#include "routing/yen.hpp"

#include <algorithm>
#include <set>

#include "routing/shortest.hpp"
#include "util/rng.hpp"

namespace pnet::routing {

namespace {

/// Orders candidate paths by (hops, lexicographic link ids): deterministic
/// and consistent with the unit-weight metric.
struct PathLess {
  bool operator()(const Path& a, const Path& b) const {
    if (a.hops() != b.hops()) return a.hops() < b.hops();
    return a.links < b.links;
  }
};

}  // namespace

LinkWeights jittered_unit_weights(const topo::Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  LinkWeights weights(static_cast<std::size_t>(g.num_links()));
  for (auto& w : weights) w = 1.0 + rng.next_double() * 1e-6;
  return weights;
}

std::vector<Path> k_shortest_paths(const topo::Graph& g, NodeId src,
                                   NodeId dst, int k,
                                   const LinkWeights* tiebreak_weights) {
  std::vector<Path> result;
  if (k <= 0 || src == dst) return result;

  // One workspace and one reverse tree to dst serve every search below.
  PathSearch search(g, tiebreak_weights, nullptr);
  search.build_tree(dst);
  auto first = search.find(src, dst);
  if (!first) return result;
  result.push_back(std::move(*first));

  std::set<Path, PathLess> candidates;
  while (static_cast<int>(result.size()) < k) {
    const Path& prev = result.back();

    // Spur from every node of the previous path except the destination.
    Path root_path;
    root_path.plane = prev.plane;
    NodeId spur_node = src;
    for (std::size_t i = 0; i < prev.links.size(); ++i) {
      // Ban links that would recreate any already-found path sharing this
      // root.
      search.clear_bans();
      for (const Path& p : result) {
        if (p.links.size() > i &&
            std::equal(root_path.links.begin(), root_path.links.end(),
                       p.links.begin())) {
          search.ban_link(p.links[i]);
        }
      }
      // Ban the root path's interior nodes so spur paths stay loopless.
      NodeId at = src;
      for (const LinkId id : root_path.links) {
        search.ban_node(at);
        at = g.link(id).dst;
      }

      auto spur = search.find(spur_node, dst);
      if (spur) {
        Path total;
        total.plane = prev.plane;
        total.links = root_path.links;
        total.links.insert(total.links.end(), spur->links.begin(),
                           spur->links.end());
        const bool known =
            std::find(result.begin(), result.end(), total) != result.end();
        if (!known) candidates.insert(std::move(total));
      }

      root_path.links.push_back(prev.links[i]);
      spur_node = g.link(prev.links[i]).dst;
    }

    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return result;
}

}  // namespace pnet::routing
