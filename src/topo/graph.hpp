// Directed multigraph with typed nodes (hosts/switches) and capacitated,
// latency-annotated links. One Graph models one dataplane; a P-Net is a
// collection of Graphs (see parallel.hpp), which structurally enforces the
// paper's invariant that packets cannot cross dataplanes in flight.
//
// Full-duplex cables are modelled as a pair of directed links; the pair is
// linked via `reverse()` so ACK paths and duplex bookkeeping are O(1).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "util/ids.hpp"
#include "util/units.hpp"

namespace pnet::topo {

enum class NodeKind : std::uint8_t { kHost, kSwitch };

struct Node {
  NodeKind kind = NodeKind::kSwitch;
  /// For hosts: the global host index shared across planes. Invalid for
  /// switches.
  HostId host;
};

struct Link {
  NodeId src;
  NodeId dst;
  double rate_bps = 0.0;
  SimTime latency = 0;
};

class Graph {
 public:
  NodeId add_node(NodeKind kind, HostId host = HostId{}) {
    nodes_.push_back(Node{kind, host});
    adjacency_.emplace_back();
    in_adjacency_.emplace_back();
    return NodeId{static_cast<std::int32_t>(nodes_.size() - 1)};
  }

  /// Adds one directed link. Prefer add_duplex_link for physical cables.
  LinkId add_link(NodeId src, NodeId dst, double rate_bps, SimTime latency) {
    assert(src.valid() && dst.valid());
    links_.push_back(Link{src, dst, rate_bps, latency});
    const LinkId id{static_cast<std::int32_t>(links_.size() - 1)};
    adjacency_[static_cast<std::size_t>(src.v)].push_back(id);
    in_adjacency_[static_cast<std::size_t>(dst.v)].push_back(id);
    return id;
  }

  /// Adds a full-duplex cable: two directed links that are each other's
  /// reverse. Returns the forward link; the reverse is `reverse(returned)`.
  LinkId add_duplex_link(NodeId a, NodeId b, double rate_bps,
                         SimTime latency) {
    const LinkId fwd = add_link(a, b, rate_bps, latency);
    const LinkId rev = add_link(b, a, rate_bps, latency);
    assert(rev.v == fwd.v + 1);
    (void)rev;
    return fwd;
  }

  /// The opposite direction of a link created by add_duplex_link. Links are
  /// created in (fwd, rev) pairs, so the partner differs in the lowest bit.
  [[nodiscard]] LinkId reverse(LinkId id) const {
    assert(id.valid());
    return LinkId{id.v ^ 1};
  }

  [[nodiscard]] int num_nodes() const {
    return static_cast<int>(nodes_.size());
  }
  [[nodiscard]] int num_links() const {
    return static_cast<int>(links_.size());
  }
  /// Physical cables (duplex pairs).
  [[nodiscard]] int num_cables() const { return num_links() / 2; }

  [[nodiscard]] const Node& node(NodeId id) const {
    return nodes_[static_cast<std::size_t>(id.v)];
  }
  [[nodiscard]] const Link& link(LinkId id) const {
    return links_[static_cast<std::size_t>(id.v)];
  }
  [[nodiscard]] std::span<const LinkId> out_links(NodeId id) const {
    return adjacency_[static_cast<std::size_t>(id.v)];
  }
  /// The links whose dst is `id`, in ascending link id.
  [[nodiscard]] std::span<const LinkId> in_links(NodeId id) const {
    return in_adjacency_[static_cast<std::size_t>(id.v)];
  }

  [[nodiscard]] bool is_host(NodeId id) const {
    return node(id).kind == NodeKind::kHost;
  }

  [[nodiscard]] std::vector<NodeId> hosts() const {
    std::vector<NodeId> out;
    for (int i = 0; i < num_nodes(); ++i) {
      const NodeId id{i};
      if (is_host(id)) out.push_back(id);
    }
    return out;
  }

  [[nodiscard]] std::vector<NodeId> switches() const {
    std::vector<NodeId> out;
    for (int i = 0; i < num_nodes(); ++i) {
      const NodeId id{i};
      if (!is_host(id)) out.push_back(id);
    }
    return out;
  }

 private:
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> adjacency_;
  std::vector<std::vector<LinkId>> in_adjacency_;
};

}  // namespace pnet::topo
