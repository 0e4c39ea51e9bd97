#include "routing/route_cache.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <span>

#include "routing/ecmp.hpp"
#include "routing/plane_paths.hpp"
#include "util/rng.hpp"

namespace pnet::routing {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t query_hash(const RouteQuery& q) {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(q.kind) ^
                          0xC0FFEE123456789ULL);
  h = mix64(h ^ pair_key(q.src, q.dst));
  h = mix64(h ^ (static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(q.plane))
                 << 32 | static_cast<std::uint32_t>(q.k)));
  h = mix64(h ^ static_cast<std::uint32_t>(q.total_cap));
  h = mix64(h ^ q.tiebreak_seed);
  return h;
}

}  // namespace

std::uint32_t RouteStore::Shard::append(const std::vector<Path>& paths) {
  const std::uint32_t first_ref = refs.extend(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    std::construct_at(refs.at(first_ref + static_cast<std::uint32_t>(i)),
                      table.intern(paths[i]));
  }
  return first_ref;
}

std::vector<Path> RouteStore::compute(const topo::ParallelNetwork& net,
                                      const RouteQuery& q,
                                      RouteCacheStats& added) {
  ++added.misses;
  const std::uint64_t t0 = now_ns();
  std::vector<Path> paths;
  switch (q.kind) {
    case RouteKind::kKsp:
      paths = ksp_across_planes(net, q.src, q.dst, q.k, q.tiebreak_seed,
                                q.total_cap);
      break;
    case RouteKind::kShortestPerPlane:
      paths = shortest_per_plane(net, q.src, q.dst);
      break;
    case RouteKind::kEcmpPlane:
      paths = ecmp_paths_in_plane(net, q.plane, q.src, q.dst, q.k);
      break;
  }
  added.compute_ns += now_ns() - t0;
  return paths;
}

RouteSnapshot RouteStore::lookup(const topo::ParallelNetwork& net,
                                 const RouteQuery& q,
                                 RouteCacheStats& added) {
  const std::uint64_t hash = query_hash(q);
  Shard& shard = shards_[hash % kShards];
  std::vector<Path> paths;
  if (!enabled_) paths = compute(net, q, added);  // fresh, outside the lock

  std::lock_guard<std::mutex> lock(shard.mu);
  const std::uint32_t tag = TagIndex::tag_of(hash);
  if (enabled_) {
    const auto same = [&](std::uint32_t id) {
      return shard.entries.at(id)->query == q;
    };
    if (const auto id = shard.index.find(tag, same)) {
      ++added.hits;
      const Entry& entry = *shard.entries.at(*id);
      return shard.view(entry.first_ref, entry.num_refs);
    }
    paths = compute(net, q, added);  // under the lock: one miss per query
  }

  const std::size_t bytes_before = shard.heap_bytes();
  const std::size_t arena_before = shard.table.arena_bytes();
  const std::size_t paths_before = shard.table.num_paths();
  const Entry entry{q, shard.append(paths),
                    static_cast<std::uint32_t>(paths.size())};
  if (enabled_) {
    shard.index.insert(
        tag, shard.entries.append(std::span<const Entry>(&entry, 1)));
  }
  ++added.entries;
  added.paths += shard.table.num_paths() - paths_before;
  added.arena_bytes += shard.table.arena_bytes() - arena_before;
  added.heap_bytes += shard.heap_bytes() - bytes_before;
  return shard.view(entry.first_ref, entry.num_refs);
}

bool RouteCache::enabled_by_env() {
  const char* v = std::getenv("PNET_ROUTE_CACHE");
  if (v == nullptr) return true;
  return std::strcmp(v, "off") != 0 && std::strcmp(v, "0") != 0 &&
         std::strcmp(v, "false") != 0;
}

RouteCache::RouteCache(bool enabled)
    : store_(std::make_shared<RouteStore>(enabled)) {}

RouteCache::RouteCache(std::shared_ptr<RouteStore> store)
    : store_(std::move(store)) {}

RouteSnapshot RouteCache::lookup(const topo::ParallelNetwork& net,
                                 const RouteQuery& q) {
  RouteCacheStats added;
  const RouteSnapshot routes = store_->lookup(net, q, added);
  if (added.misses == 0) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return routes;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  compute_ns_.fetch_add(added.compute_ns, std::memory_order_relaxed);
  arena_bytes_.fetch_add(added.arena_bytes, std::memory_order_relaxed);
  heap_bytes_.fetch_add(added.heap_bytes, std::memory_order_relaxed);
  entries_.fetch_add(added.entries, std::memory_order_relaxed);
  paths_.fetch_add(added.paths, std::memory_order_relaxed);
  return routes;
}

RouteCacheStats RouteCache::stats() const {
  RouteCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.compute_ns = compute_ns_.load(std::memory_order_relaxed);
  out.arena_bytes = arena_bytes_.load(std::memory_order_relaxed);
  out.heap_bytes = heap_bytes_.load(std::memory_order_relaxed);
  out.entries = entries_.load(std::memory_order_relaxed);
  out.paths = paths_.load(std::memory_order_relaxed);
  return out;
}

std::shared_ptr<RouteCache> RoutePool::handle(const std::string& topology,
                                              bool* reused) {
  auto [it, fresh] = stores_.try_emplace(topology);
  if (reused != nullptr) *reused = !fresh;
  if (fresh) {
    it->second.store =
        std::make_shared<RouteStore>(RouteCache::enabled_by_env());
  }
  it->second.last_use = ++uses_;
  auto handle = std::make_shared<RouteCache>(it->second.store);
  while (stores_.size() > capacity_) {
    auto oldest = stores_.begin();
    for (auto s = stores_.begin(); s != stores_.end(); ++s) {
      if (s->second.last_use < oldest->second.last_use) oldest = s;
    }
    stores_.erase(oldest);
  }
  return handle;
}

}  // namespace pnet::routing
