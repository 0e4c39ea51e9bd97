// Shared route cache: a memo of (network, query).
//
// Route computation (Yen's KSP across planes, ECMP enumeration, per-plane
// shortest paths) dominates setup time for large experiments. RouteCache
// computes each distinct query once: entries are keyed by the full
// policy-relevant query (src, dst, scheme, k, caps, tie-break seed), path
// link sequences are interned into per-shard RouteTable arenas, and
// consumers receive RouteSnapshots — shared_ptrs to immutable entries
// exposing PathViews, so the hot path never copies a vector<Path>.
//
// An entry is a pure function of the network's structure and the query.
// No fault changes a computed route: plane outages are selection-time
// filters (core::PathSelector::plane_usable) and a degraded cable stays in
// service, so an entry, once computed, is never recomputed. Every network
// passed to one cache must have the same structure (e.g. the identical
// topologies of an experiment cell's trials).
//
// Concurrency: a lookup probes its key's shard under the shard mutex and,
// on a miss, computes under it, so one thread computes while others for
// the same shard wait — distinct shards proceed in parallel, and each
// distinct query counts exactly one miss however many threads ask for it.
// A returned snapshot may be read lock-free after the lookup returns:
// RouteTable arenas are chunked slabs that never move and entries are
// immutable. Since an entry never depends on thread timing, a cache shared
// across worker threads yields bit-identical results to private caches.
//
// PNET_ROUTE_CACHE=off (or "0"/"false") switches every cache constructed
// with default enablement into pass-through mode: each lookup computes
// fresh and returns a self-contained snapshot. Results are byte-identical
// to cached mode; only the counters differ. This is the escape hatch for
// A/B-ing suspected cache bugs.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "routing/route_table.hpp"
#include "topo/parallel.hpp"

namespace pnet::routing {

/// What a consumer wants cached. The key includes every knob that affects
/// the computed paths, so two selectors with different policies never alias.
enum class RouteKind : std::uint8_t {
  kKsp,              // ksp_across_planes(k, tiebreak_seed, total_cap)
  kShortestPerPlane, // shortest_per_plane()
  kEcmpPlane,        // ecmp_paths_in_plane(plane, cap) — cap rides in `k`
};

struct RouteQuery {
  RouteKind kind = RouteKind::kShortestPerPlane;
  HostId src;
  HostId dst;
  std::int32_t plane = -1;  // kEcmpPlane only
  std::int32_t k = 0;       // kKsp: per-plane K; kEcmpPlane: enumeration cap
  std::int32_t total_cap = 0;       // kKsp: merged cap (0 = k)
  std::uint64_t tiebreak_seed = 0;  // kKsp only

  static RouteQuery ksp(HostId src, HostId dst, int k,
                        std::uint64_t tiebreak_seed, int total_cap = 0) {
    RouteQuery q;
    q.kind = RouteKind::kKsp;
    q.src = src;
    q.dst = dst;
    q.k = k;
    q.total_cap = total_cap;
    q.tiebreak_seed = tiebreak_seed;
    return q;
  }
  static RouteQuery shortest_per_plane(HostId src, HostId dst) {
    RouteQuery q;
    q.kind = RouteKind::kShortestPerPlane;
    q.src = src;
    q.dst = dst;
    return q;
  }
  static RouteQuery ecmp_plane(HostId src, HostId dst, int plane, int cap) {
    RouteQuery q;
    q.kind = RouteKind::kEcmpPlane;
    q.src = src;
    q.dst = dst;
    q.plane = plane;
    q.k = cap;
    return q;
  }

  friend bool operator==(const RouteQuery&, const RouteQuery&) = default;
};

/// One immutable cached result. Resolved views stay valid as long as the
/// owning RouteCache lives (pass-through entries own their table and are
/// self-contained).
class RouteEntry {
 public:
  [[nodiscard]] std::size_t size() const { return refs_.size(); }
  [[nodiscard]] bool empty() const { return refs_.empty(); }
  [[nodiscard]] PathView view(std::size_t i) const {
    return table_->view(refs_[i]);
  }
  /// Deep copy of every path, for the transport boundary.
  [[nodiscard]] std::vector<Path> materialize() const {
    std::vector<Path> out;
    out.reserve(refs_.size());
    for (const PathRef& ref : refs_) out.push_back(table_->view(ref).materialize());
    return out;
  }

 private:
  friend class RouteCache;

  const RouteTable* table_ = nullptr;
  std::unique_ptr<RouteTable> owned_table_;  // pass-through mode only
  std::vector<PathRef> refs_;
};

using RouteSnapshot = std::shared_ptr<const RouteEntry>;

struct RouteCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Wall time spent inside path computation (all threads summed).
  std::uint64_t compute_ns = 0;
  std::size_t arena_bytes = 0;
  std::size_t entries = 0;
  /// Distinct interned paths across shards (post-dedup).
  std::size_t paths = 0;
};

class RouteCache {
 public:
  /// `enabled` = false builds a pass-through cache (see header comment).
  explicit RouteCache(bool enabled = enabled_by_env());

  RouteCache(const RouteCache&) = delete;
  RouteCache& operator=(const RouteCache&) = delete;

  /// False when PNET_ROUTE_CACHE is "off"/"0"/"false" in the environment.
  static bool enabled_by_env();

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// The paths for `q` on `net`, computed on the first lookup of `q` and
  /// served from the shard afterwards. The snapshot is immutable and safe
  /// to read after the call without further synchronization.
  RouteSnapshot lookup(const topo::ParallelNetwork& net, const RouteQuery& q);

  [[nodiscard]] RouteCacheStats stats() const;

 private:
  static constexpr std::size_t kShards = 16;

  struct QueryHash {
    std::size_t operator()(const RouteQuery& q) const;
  };
  struct Shard {
    mutable std::mutex mu;
    RouteTable table;
    std::unordered_map<RouteQuery, RouteSnapshot, QueryHash> entries;
  };

  /// Computes `q` (counting the miss) and interns its paths into `table`.
  std::shared_ptr<RouteEntry> compute(const topo::ParallelNetwork& net,
                                      const RouteQuery& q, RouteTable& table);

  const bool enabled_;
  std::array<Shard, kShards> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> compute_ns_{0};
};

}  // namespace pnet::routing
