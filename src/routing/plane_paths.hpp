// Cross-plane path computation for P-Nets.
//
// The paper's key forwarding mechanism (section 4): compute K shortest paths
// per dataplane, then keep the K globally shortest, so subflows naturally
// concentrate on planes that happen to offer shorter paths (the source of
// the heterogeneous latency win) while still spreading across planes at
// equal hop counts.
#pragma once

#include <vector>

#include "routing/path.hpp"
#include "topo/parallel.hpp"

namespace pnet::routing {

/// K globally-shortest loopless paths between two hosts across all planes.
/// At equal hop count, planes are interleaved round-robin (rank within the
/// plane first, then plane index) so homogeneous P-Nets spread evenly.
/// `tiebreak_seed` != 0 randomizes which equal-hop paths Yen selects inside
/// each plane (vary it per flow on equal-cost-rich fabrics like fat trees —
/// see yen.hpp).
/// `total_cap` bounds the merged result (0 means k); pass k * num_planes to
/// keep every per-plane candidate, e.g. so a failure-aware selector can
/// re-filter by plane without recomputing.
std::vector<Path> ksp_across_planes(const topo::ParallelNetwork& net,
                                    HostId src, HostId dst, int k,
                                    std::uint64_t tiebreak_seed = 0,
                                    int total_cap = 0);

/// One shortest path per plane, sorted globally by hop count (shortest-plane
/// first). Used by the "low-latency" single-path interface of section 3.4.
std::vector<Path> shortest_per_plane(const topo::ParallelNetwork& net,
                                     HostId src, HostId dst);

/// Equal-cost shortest paths within one plane (plane field filled in).
std::vector<Path> ecmp_paths_in_plane(const topo::ParallelNetwork& net,
                                      int plane, HostId src, HostId dst,
                                      int cap = 256);

}  // namespace pnet::routing
