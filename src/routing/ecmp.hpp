// ECMP path enumeration and per-flow hashing.
//
// enumerate_shortest_paths lists the equal-cost shortest paths a standard
// ECMP dataplane spreads over (the shortest-path DAG's paths), capped to
// keep fat-tree core fan-outs tractable. ecmp_pick hashes flow identifiers
// to one of those paths, the way a switch hashes the five-tuple. The keys
// and the weighted plane pick below are shared by the packet engine's
// core::PathSelector and the fluid engine's fsim::FluidSimulator, so both
// place a flow identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "routing/path.hpp"

namespace pnet::routing {

/// All (up to `cap`) fewest-hop paths from src to dst, found by DFS over the
/// shortest-path DAG. Deterministic order (link-id lexicographic).
std::vector<Path> enumerate_shortest_paths(const topo::Graph& g, NodeId src,
                                           NodeId dst, int cap = 256);

/// Stable per-flow choice among `count` equal options; `flow_key` identifies
/// the flow (e.g. mix of src, dst and flow index).
int ecmp_pick(std::uint64_t flow_key, int count);

/// The (src, dst) pair as one 64-bit key, src in the high word: the base of
/// every per-pair and per-flow hash key.
inline std::uint64_t pair_key(HostId src, HostId dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src.v))
          << 32) |
         static_cast<std::uint32_t>(dst.v);
}

/// Hash key of a pair's `seq`-th repin, so successive repins of one pair
/// spread over the target plane's equal-cost paths instead of colliding.
std::uint64_t repin_key(HostId src, HostId dst, std::uint64_t seq);

/// Index into `usable` (plane ids) for hash `key`. Plane p weighs
/// `weights[p]` (negative or missing entries weigh 0) and is picked with
/// probability weight / total; with no weights, or a zero total, the pick
/// is ecmp_pick's uniform one. Deterministic in (key, weights).
std::size_t weighted_pick(const std::vector<int>& usable,
                          const std::vector<double>& weights,
                          std::uint64_t key);

}  // namespace pnet::routing
