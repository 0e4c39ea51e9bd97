// Route memo: one flat store per network, read through per-consumer handles.
//
// Route computation (Yen's KSP across planes, ECMP enumeration, per-plane
// shortest paths) dominates setup time for large experiments. A RouteStore
// computes each distinct query once and keeps the answer: entries are keyed
// by the full policy-relevant query (src, dst, scheme, k, caps, tie-break
// seed), path link sequences are interned into per-shard RouteTable arenas,
// and consumers receive RouteSnapshots — non-owning views of an entry's
// paths, so the hot path never copies a vector<Path>, allocates or touches
// a reference count.
//
// Layout: 16 shards, each a mutex, a RouteTable, and flat arrays — entry
// records (query, first ref, ref count) and their PathRefs in ChunkedArrays,
// plus a TagIndex of entry ids by query hash, whose candidates are compared
// by the full query. No entry or path owns a heap object of its own.
//
// A RouteCache is a handle on a store with counters of its own: its hits,
// misses and compute time, and the entries, paths and bytes its misses
// added. RoutePool hands out one store per network, so the cells of a run
// (or the queries of pnet-serve) on one topology share it, each through its
// own handle, and the handles' counters add up to the store's totals.
//
// An entry is a pure function of the network's structure and the query.
// No fault changes a computed route: plane outages are selection-time
// filters (core::PathSelector::plane_usable) and a degraded cable stays in
// service, so an entry, once computed, is never recomputed or evicted.
// Every network passed to one store must have the same structure (e.g. the
// networks built from one NetworkSpec).
//
// Concurrency: a lookup probes its key's shard under the shard mutex and,
// on a miss, computes under it, so one thread computes while others for
// the same shard wait — distinct shards proceed in parallel, and each
// distinct query counts exactly one miss however many threads ask for it.
// A returned snapshot may be read lock-free after the lookup returns, while
// other threads insert: the arrays it reads never move and its entry never
// changes. It stays valid as long as its store lives; consumers keep the
// store alive by holding the RouteCache. Since an entry never depends on
// thread timing, a store shared across threads and cells yields
// bit-identical results to private ones.
//
// PNET_ROUTE_CACHE=off (or "0"/"false") switches every store constructed
// with default enablement into pass-through mode: each lookup computes
// fresh, outside the lock, and the store appends the result without probing
// or indexing it (paths are still deduplicated by content), so its snapshot
// stays valid while the store lives and the store grows with every lookup.
// Results are byte-identical to cached mode; only the counters differ. This
// is the escape hatch for A/B-ing suspected cache bugs.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
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

/// One cached result: a non-owning view of an entry's paths, cheap to copy.
/// Valid as long as the store that returned it lives.
class RouteSnapshot {
 public:
  RouteSnapshot() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] PathView view(std::size_t i) const {
    return table_->view(refs_[i]);
  }
  /// Deep copy of every path, for the transport boundary.
  [[nodiscard]] std::vector<Path> materialize() const {
    std::vector<Path> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) {
      out.push_back(view(i).materialize());
    }
    return out;
  }
  /// The entry's refs in its store: equal for two lookups of one entry.
  [[nodiscard]] const PathRef* data() const { return refs_; }

 private:
  friend class RouteStore;
  RouteSnapshot(const RouteTable* table, const PathRef* refs,
                std::uint32_t size)
      : table_(table), refs_(refs), size_(size) {}

  const RouteTable* table_ = nullptr;
  const PathRef* refs_ = nullptr;
  std::uint32_t size_ = 0;
};

struct RouteCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Wall time spent inside path computation (all threads summed).
  std::uint64_t compute_ns = 0;
  /// Link arena chunks allocated, touched or not.
  std::size_t arena_bytes = 0;
  /// Heap the store's arrays hold: link arena, path and entry records,
  /// refs and both indexes (allocated capacity, touched or not).
  std::size_t heap_bytes = 0;
  /// Entries stored: distinct queries (pass-through: one per lookup).
  std::size_t entries = 0;
  /// Distinct interned paths across shards (post-dedup).
  std::size_t paths = 0;
};

/// The memo of one network (see the header comment). Never evicts; shared
/// by the RouteCache handles that read it.
class RouteStore {
 public:
  /// `enabled` = false builds a pass-through store.
  explicit RouteStore(bool enabled) : enabled_(enabled) {}

  RouteStore(const RouteStore&) = delete;
  RouteStore& operator=(const RouteStore&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// The paths for `q` on `net`, computed on the first lookup of `q` and
  /// served from the shard afterwards. Adds what the lookup did to `added`:
  /// one hit, or one miss with its compute time and the entries, paths and
  /// bytes it stored.
  RouteSnapshot lookup(const topo::ParallelNetwork& net, const RouteQuery& q,
                       RouteCacheStats& added);

 private:
  static constexpr std::size_t kShards = 16;

  struct Entry {
    RouteQuery query;
    std::uint32_t first_ref = 0;
    std::uint32_t num_refs = 0;
  };
  struct Shard {
    std::mutex mu;
    RouteTable table;
    ChunkedArray<PathRef, 256> refs;
    ChunkedArray<Entry, 64> entries;
    /// Entry ids by query hash.
    TagIndex index;

    [[nodiscard]] std::size_t heap_bytes() const {
      return table.heap_bytes() + refs.bytes() + entries.bytes() +
             index.bytes();
    }
    /// Interns `paths` and appends their refs; returns the first ref.
    std::uint32_t append(const std::vector<Path>& paths);
    [[nodiscard]] RouteSnapshot view(std::uint32_t first_ref,
                                     std::uint32_t num_refs) const {
      return {&table, num_refs == 0 ? nullptr : refs.at(first_ref),
              num_refs};
    }
  };

  /// Computes `q`'s paths, counting the miss and its compute time.
  static std::vector<Path> compute(const topo::ParallelNetwork& net,
                                   const RouteQuery& q,
                                   RouteCacheStats& added);

  const bool enabled_;
  std::array<Shard, kShards> shards_;
};

/// A consumer's handle on a RouteStore, with its own counters.
class RouteCache {
 public:
  /// A handle on a private store; `enabled` = false builds a pass-through
  /// one (see header comment).
  explicit RouteCache(bool enabled = enabled_by_env());
  /// A handle on `store`, which other handles may share.
  explicit RouteCache(std::shared_ptr<RouteStore> store);

  RouteCache(const RouteCache&) = delete;
  RouteCache& operator=(const RouteCache&) = delete;

  /// False when PNET_ROUTE_CACHE is "off"/"0"/"false" in the environment.
  static bool enabled_by_env();

  [[nodiscard]] bool enabled() const { return store_->enabled(); }

  /// RouteStore::lookup, counted on this handle. The snapshot is immutable
  /// and safe to read after the call without further synchronization.
  RouteSnapshot lookup(const topo::ParallelNetwork& net, const RouteQuery& q);

  /// This handle's lookups and what its misses added to the store; over a
  /// private store, the store's totals.
  [[nodiscard]] RouteCacheStats stats() const;

 private:
  std::shared_ptr<RouteStore> store_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> compute_ns_{0};
  std::atomic<std::size_t> arena_bytes_{0};
  std::atomic<std::size_t> heap_bytes_{0};
  std::atomic<std::size_t> entries_{0};
  std::atomic<std::size_t> paths_{0};
};

/// Route stores keyed by network: the key is the canonical JSON of the
/// NetworkSpec the network is built from (exp::canonical_json), compared as
/// the whole string. Not thread safe; callers serialize.
class RoutePool {
 public:
  /// Keeps at most `capacity` stores, dropping the least recently used
  /// beyond it (handles keep a dropped store alive).
  explicit RoutePool(
      std::size_t capacity = std::numeric_limits<std::size_t>::max())
      : capacity_(capacity) {}

  /// A new handle on the store for `topology`, built on first use with the
  /// default enablement. `reused`, when given, says whether it existed.
  std::shared_ptr<RouteCache> handle(const std::string& topology,
                                     bool* reused = nullptr);

  /// Stores kept.
  [[nodiscard]] std::size_t size() const { return stores_.size(); }

 private:
  struct Slot {
    std::shared_ptr<RouteStore> store;
    std::uint64_t last_use = 0;
  };

  std::size_t capacity_;
  std::uint64_t uses_ = 0;
  std::unordered_map<std::string, Slot> stores_;
};

}  // namespace pnet::routing
