#include "routing/shortest.hpp"

#include <algorithm>
#include <functional>
#include <queue>

namespace pnet::routing {

namespace {

/// Hosts forward nothing: only the search source may be expanded if it is a
/// host.
bool can_transit(const topo::Graph& g, NodeId node, NodeId src) {
  return node == src || !g.is_host(node);
}

Path reconstruct(const std::vector<LinkId>& parent_link, NodeId src,
                 NodeId dst, const topo::Graph& g) {
  Path path;
  NodeId at = dst;
  while (at != src) {
    const LinkId incoming = parent_link[static_cast<std::size_t>(at.v)];
    path.links.push_back(incoming);
    at = g.link(incoming).src;
  }
  std::reverse(path.links.begin(), path.links.end());
  return path;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint8_t kBaseBan = 1;
constexpr std::uint8_t kSpurBan = 2;

/// The pruning bound U plus a rounding slack. A label plus h(v) sums the
/// same links as the route it bounds, but in another order, so exact ties
/// can differ by a few ulps; the slack keeps every tie. It is relative so
/// that it holds for weights of any scale.
double prune_limit(double bound) { return bound + 1e-9 * (1.0 + bound); }

std::size_t idx(NodeId n) { return static_cast<std::size_t>(n.v); }
std::size_t idx(LinkId l) { return static_cast<std::size_t>(l.v); }

}  // namespace

std::vector<int> bfs_hops(const topo::Graph& g, NodeId src) {
  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()),
                        kUnreachable);
  dist[static_cast<std::size_t>(src.v)] = 0;
  std::queue<NodeId> frontier;
  frontier.push(src);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    if (!can_transit(g, u, src)) continue;
    for (LinkId id : g.out_links(u)) {
      const NodeId v = g.link(id).dst;
      if (dist[static_cast<std::size_t>(v.v)] == kUnreachable) {
        dist[static_cast<std::size_t>(v.v)] =
            dist[static_cast<std::size_t>(u.v)] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

std::optional<Path> shortest_path(const topo::Graph& g, NodeId src,
                                  NodeId dst) {
  if (src == dst) return Path{};
  // A node's parent is the first link that labels it, in FIFO order, so
  // the search can stop as soon as dst is labelled. Only src and switches
  // are queued: other hosts cannot transit.
  const auto nodes = static_cast<std::size_t>(g.num_nodes());
  std::vector<std::uint8_t> labelled(nodes, 0);
  std::vector<LinkId> parent_link(nodes);
  std::vector<NodeId> fifo;
  fifo.reserve(nodes);
  labelled[idx(src)] = 1;
  fifo.push_back(src);
  for (std::size_t head = 0; head < fifo.size(); ++head) {
    for (LinkId id : g.out_links(fifo[head])) {
      const NodeId v = g.link(id).dst;
      if (labelled[idx(v)] != 0) continue;
      labelled[idx(v)] = 1;
      parent_link[idx(v)] = id;
      if (v == dst) return reconstruct(parent_link, src, dst, g);
      if (!g.is_host(v)) fifo.push_back(v);
    }
  }
  return std::nullopt;
}

PathSearch::PathSearch(const topo::Graph& g, const LinkWeights* weights,
                       const std::vector<bool>* base_banned)
    : g_(g),
      weights_(weights != nullptr ? weights->data() : nullptr),
      link_ban_(static_cast<std::size_t>(g.num_links()), 0),
      node_ban_(static_cast<std::size_t>(g.num_nodes()), 0),
      dist_(static_cast<std::size_t>(g.num_nodes()), kInf),
      parent_(static_cast<std::size_t>(g.num_nodes())) {
  if (base_banned != nullptr) {
    const std::size_t n = std::min(base_banned->size(), link_ban_.size());
    for (std::size_t i = 0; i < n; ++i) {
      if ((*base_banned)[i]) link_ban_[i] = kBaseBan;
    }
  }
}

void PathSearch::ban_link(LinkId id) {
  if ((link_ban_[idx(id)] & kSpurBan) != 0) return;
  link_ban_[idx(id)] |= kSpurBan;
  banned_links_.push_back(id);
}

void PathSearch::ban_node(NodeId id) {
  if (node_ban_[idx(id)] != 0) return;
  node_ban_[idx(id)] = 1;
  banned_nodes_.push_back(id);
}

void PathSearch::clear_bans() {
  for (const LinkId id : banned_links_) link_ban_[idx(id)] &= ~kSpurBan;
  for (const NodeId id : banned_nodes_) node_ban_[idx(id)] = 0;
  banned_links_.clear();
  banned_nodes_.clear();
}

void PathSearch::push(double d, std::int32_t node) {
  heap_.emplace_back(d, node);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

PathSearch::Entry PathSearch::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  const Entry top = heap_.back();
  heap_.pop_back();
  return top;
}

template <class Settle>
void PathSearch::drain(const std::vector<double>& dist, Settle&& settle) {
  while (!heap_.empty()) {
    const auto [d, node] = pop();
    if (d > dist[static_cast<std::size_t>(node)]) continue;  // stale entry
    if (!settle(NodeId{node}, d)) return;
  }
}

void PathSearch::build_tree(NodeId dst) {
  const auto nodes = static_cast<std::size_t>(g_.num_nodes());
  tree_dst_ = dst;
  h_.assign(nodes, kInf);
  next_.assign(nodes, LinkId{});
  heap_.clear();
  h_[idx(dst)] = 0.0;
  push(0.0, dst.v);
  // Only dst and switches are settled: a host u gets h(u) as the start of a
  // route but is never a tree path's interior.
  drain(h_, [&](NodeId x, double d) {
    for (const LinkId id : g_.in_links(x)) {
      if ((link_ban_[idx(id)] & kBaseBan) != 0) continue;
      const NodeId u = g_.link(id).src;
      const double nd = d + weight(id);
      if (nd < h_[idx(u)]) {
        h_[idx(u)] = nd;
        next_[idx(u)] = id;
        if (!g_.is_host(u)) push(nd, u.v);
      }
    }
    return true;
  });
}

bool PathSearch::dst_closed(NodeId dst) const {
  for (const LinkId id : g_.in_links(dst)) {
    if (link_ban_[idx(id)] == 0 && node_ban_[idx(g_.link(id).src)] == 0) {
      return false;
    }
  }
  return true;
}

bool PathSearch::tree_feasible(NodeId v) const {
  for (NodeId node = v; node != tree_dst_;) {
    const LinkId id = next_[idx(node)];
    if (link_ban_[idx(id)] != 0) return false;
    node = g_.link(id).dst;
    if (node_ban_[idx(node)] != 0) return false;
  }
  return true;
}

std::optional<Path> PathSearch::find(NodeId src, NodeId dst) {
  if (node_ban_[idx(src)] != 0 || node_ban_[idx(dst)] != 0) {
    return std::nullopt;
  }
  if (src != dst && dst_closed(dst)) return std::nullopt;
  for (const std::int32_t n : touched_) {
    dist_[static_cast<std::size_t>(n)] = kInf;
  }
  touched_.clear();
  heap_.clear();

  const bool pruned = tree_dst_ == dst;
  double bound = kInf;  // U: cheapest ban-free route seen so far
  double limit = kInf;
  // A label at v plus a feasible tree path is a real route (a walk that
  // avoids every ban, whose cycles only shorten it), so it bounds the
  // optimum.
  auto offer = [&](NodeId v, double d) {
    const double f = d + h_[idx(v)];
    if (f < bound && tree_feasible(v)) {
      bound = f;
      limit = prune_limit(f);
    }
  };

  dist_[idx(src)] = 0.0;
  touched_.push_back(src.v);
  push(0.0, src.v);
  if (pruned) offer(src, 0.0);
  drain(dist_, [&](NodeId u, double d) {
    if (u == dst) return false;
    if (pruned && d + h_[idx(u)] > limit) return true;
    for (const LinkId id : g_.out_links(u)) {
      if (link_ban_[idx(id)] != 0) continue;
      const NodeId v = g_.link(id).dst;
      if (node_ban_[idx(v)] != 0) continue;
      if (v != dst && g_.is_host(v)) continue;  // hosts do not transit
      const double nd = d + weight(id);
      if (!(nd < dist_[idx(v)])) continue;
      if (pruned && (h_[idx(v)] == kInf || nd + h_[idx(v)] > limit)) continue;
      if (dist_[idx(v)] == kInf) touched_.push_back(v.v);
      dist_[idx(v)] = nd;
      parent_[idx(v)] = id;
      push(nd, v.v);
      if (pruned) offer(v, nd);
    }
    return true;
  });
  if (dist_[idx(dst)] == kInf) return std::nullopt;
  return reconstruct(parent_, src, dst, g_);
}

std::optional<Path> dijkstra(const topo::Graph& g, NodeId src, NodeId dst,
                             const LinkWeights& weights,
                             const std::vector<bool>& banned_links,
                             const std::vector<bool>& banned_nodes) {
  PathSearch search(g, &weights, &banned_links);
  for (std::size_t n = 0; n < banned_nodes.size(); ++n) {
    if (banned_nodes[n]) search.ban_node(NodeId{static_cast<std::int32_t>(n)});
  }
  return search.find(src, dst);
}

std::vector<std::vector<int>> all_pairs_switch_hops(
    const topo::Graph& g, const std::vector<NodeId>& switches) {
  std::vector<std::vector<int>> out;
  out.reserve(switches.size());
  for (NodeId s : switches) {
    const std::vector<int> dist = bfs_hops(g, s);
    std::vector<int> row;
    row.reserve(switches.size());
    for (NodeId t : switches) {
      row.push_back(dist[static_cast<std::size_t>(t.v)]);
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace pnet::routing
