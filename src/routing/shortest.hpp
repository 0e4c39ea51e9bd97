// Shortest-path primitives: BFS (hop metric), Dijkstra (weighted), and the
// reusable weighted search behind both dijkstra() and Yen's spur searches.
// Host nodes never act as transit: a search only expands a host when it is
// the source, so computed paths obey the physical constraint that servers do
// not forward.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "routing/path.hpp"

namespace pnet::routing {

inline constexpr int kUnreachable = std::numeric_limits<int>::max();

/// Hop distance from `src` to every node (kUnreachable if none).
std::vector<int> bfs_hops(const topo::Graph& g, NodeId src);

/// One shortest (fewest-hop) path, deterministic tie-break by link id: a
/// node's parent is the first link that reaches it in BFS order. The search
/// stops as soon as `dst` is reached.
std::optional<Path> shortest_path(const topo::Graph& g, NodeId src,
                                  NodeId dst);

/// Per-link weights for weighted searches; indexed by LinkId::v.
using LinkWeights = std::vector<double>;

/// Weighted shortest path; `banned_links`/`banned_nodes` (optional, may be
/// empty) exclude links and nodes. Weights must be non-negative. The
/// unpruned entry point of PathSearch (one search, no tree): the LP oracle's
/// shortest path under arbitrary lengths.
std::optional<Path> dijkstra(const topo::Graph& g, NodeId src, NodeId dst,
                             const LinkWeights& weights,
                             const std::vector<bool>& banned_links = {},
                             const std::vector<bool>& banned_nodes = {});

/// The one weighted shortest-path search, with its workspace kept across
/// calls: Yen's K-shortest paths run hundreds of searches on one graph, so
/// the distance, parent and heap arrays and the byte ban masks are
/// allocated once and cleared through touched lists.
///
/// find() is Dijkstra: it pops (dist, node) in order and a node's parent is
/// the first link that reached its final distance (strict `<`). Hosts other
/// than `dst` never enter the heap, since they cannot transit.
///
/// After build_tree(dst), searches to `dst` prune with a reverse
/// shortest-path tree built under the base mask. The tree gives every node a
/// lower bound h(v) on its remaining cost and a next hop. A search keeps U,
/// the cost of the cheapest route seen so far that avoids every current ban
/// (a label plus a tree path that passes tree_feasible()), and skips a
/// relaxation whose g + h(v) exceeds U plus a rounding slack. Such a node
/// costs strictly more than the optimum, so every node on every tied
/// shortest path keeps its label and first parent: the pruned search
/// returns exactly the path of the unpruned one, for any non-negative
/// weights.
///
/// find() first checks that some in-link of `dst` is open: not banned and
/// not starting at a banned node. Every route to `dst` ends on one of them,
/// and a search never crosses a banned link or labels a banned node, so
/// when all are closed the answer is nullopt without a search. Yen meets
/// this on every spur from a host `dst`'s top-of-rack switch: hosts are
/// single-homed per plane, so every accepted path ends on the same in-link,
/// and that spur bans it.
class PathSearch {
 public:
  /// `weights` (nullptr = unit) and `base_banned` (nullptr = none, indexed
  /// by LinkId::v) must outlive the search.
  PathSearch(const topo::Graph& g, const LinkWeights* weights,
             const std::vector<bool>* base_banned);

  /// Bans layered over the base mask until clear_bans().
  void ban_link(LinkId id);
  void ban_node(NodeId id);
  void clear_bans();

  /// Builds the reverse shortest-path tree to `dst` under the base mask,
  /// walking Graph::in_links. Later find() calls toward `dst` prune with it.
  void build_tree(NodeId dst);

  /// Cheapest src->dst path under the current bans, or nullopt.
  std::optional<Path> find(NodeId src, NodeId dst);

  /// True when the tree path from `v` to the tree's destination avoids
  /// every current link and node ban, so a label at `v` plus h(v) is the
  /// cost of a real route.
  [[nodiscard]] bool tree_feasible(NodeId v) const;

 private:
  using Entry = std::pair<double, std::int32_t>;  // (dist, node)

  [[nodiscard]] double weight(LinkId id) const {
    return weights_ != nullptr ? weights_[static_cast<std::size_t>(id.v)]
                               : 1.0;
  }
  /// True when every in-link of `dst` is banned or starts at a banned
  /// node.
  [[nodiscard]] bool dst_closed(NodeId dst) const;
  void push(double d, std::int32_t node);
  Entry pop();
  /// Pops entries in (dist, node) order, skipping stale ones, and hands
  /// each settled node to `settle` until it returns false.
  template <class Settle>
  void drain(const std::vector<double>& dist, Settle&& settle);

  const topo::Graph& g_;
  const double* weights_;
  /// Per link: kBaseBan | kSpurBan bits; per node: spur ban flag.
  std::vector<std::uint8_t> link_ban_;
  std::vector<std::uint8_t> node_ban_;
  std::vector<LinkId> banned_links_;  // spur bans, for clear_bans()
  std::vector<NodeId> banned_nodes_;

  std::vector<double> dist_;
  std::vector<LinkId> parent_;
  std::vector<std::int32_t> touched_;  // nodes whose dist_ is set
  std::vector<Entry> heap_;

  /// Reverse tree toward tree_dst_: h_ (kInf when dst is unreachable) and
  /// the first link of the tree path.
  NodeId tree_dst_;
  std::vector<double> h_;
  std::vector<LinkId> next_;
};

/// Hop distances between every pair of switches, indexed by position in
/// `switches`. Used by the fault-tolerance study (Fig 14).
std::vector<std::vector<int>> all_pairs_switch_hops(
    const topo::Graph& g, const std::vector<NodeId>& switches);

}  // namespace pnet::routing
