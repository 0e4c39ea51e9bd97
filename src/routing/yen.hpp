// Yen's K-shortest loopless paths [Yen 1971], the KSP algorithm named by the
// paper (section 4: "MPTCP combined with K shortest paths routing").
//
// The metric is hop count (all fabric links weigh 1), matching Jellyfish and
// the paper's use; ties are broken deterministically by link id so results
// are reproducible across runs.
//
// Every search of one call (the first path and each spur) runs through one
// PathSearch workspace, pruned by one reverse shortest-path tree to dst. The
// pruning skips only nodes that cost
// strictly more than the optimum, so the paths are exactly those of a full
// Dijkstra per spur (shortest.hpp gives the argument; routing_test checks it
// against that reference).
#pragma once

#include <cstdint>
#include <vector>

#include "routing/path.hpp"
#include "routing/shortest.hpp"

namespace pnet::routing {

/// Up to K loopless shortest paths from src to dst, sorted by (hops, lexico
/// link ids). Fewer than K are returned when the graph has fewer loopless
/// paths.
///
/// `tiebreak_weights` (optional) perturbs the unit hop metric: pass weights
/// of the form 1 + tiny jitter to randomize WHICH equal-hop paths are
/// selected. Without it, the deterministic lexicographic tie-break
/// concentrates every flow's K paths on the same corner of an equal-cost-
/// rich fabric (e.g. the first two aggregation switches of a fat tree),
/// wasting most of the fabric.
std::vector<Path> k_shortest_paths(const topo::Graph& g, NodeId src,
                                   NodeId dst, int k,
                                   const LinkWeights* tiebreak_weights =
                                       nullptr);

/// Jittered unit weights for randomized tie-breaking (1 + U[0, 1e-6)).
LinkWeights jittered_unit_weights(const topo::Graph& g, std::uint64_t seed);

}  // namespace pnet::routing
