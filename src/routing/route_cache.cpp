#include "routing/route_cache.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>

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

}  // namespace

std::size_t RouteCache::QueryHash::operator()(const RouteQuery& q) const {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(q.kind) ^
                          0xC0FFEE123456789ULL);
  h = mix64(h ^ pair_key(q.src, q.dst));
  h = mix64(h ^ (static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(q.plane))
                 << 32 | static_cast<std::uint32_t>(q.k)));
  h = mix64(h ^ static_cast<std::uint32_t>(q.total_cap));
  h = mix64(h ^ q.tiebreak_seed);
  return static_cast<std::size_t>(h);
}

bool RouteCache::enabled_by_env() {
  const char* v = std::getenv("PNET_ROUTE_CACHE");
  if (v == nullptr) return true;
  return std::strcmp(v, "off") != 0 && std::strcmp(v, "0") != 0 &&
         std::strcmp(v, "false") != 0;
}

RouteCache::RouteCache(bool enabled) : enabled_(enabled) {}

std::shared_ptr<RouteEntry> RouteCache::compute(
    const topo::ParallelNetwork& net, const RouteQuery& q,
    RouteTable& table) {
  misses_.fetch_add(1, std::memory_order_relaxed);
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
  compute_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);

  auto entry = std::make_shared<RouteEntry>();
  entry->table_ = &table;
  entry->refs_.reserve(paths.size());
  for (const Path& path : paths) entry->refs_.push_back(table.intern(path));
  return entry;
}

RouteSnapshot RouteCache::lookup(const topo::ParallelNetwork& net,
                                 const RouteQuery& q) {
  if (!enabled_) {
    // Pass-through: fresh compute per call, self-contained snapshot.
    auto table = std::make_unique<RouteTable>();
    auto entry = compute(net, q, *table);
    entry->owned_table_ = std::move(table);
    return entry;
  }

  Shard& shard = shards_[QueryHash{}(q) % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.entries.find(q);
  if (it != shard.entries.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  RouteSnapshot snap = compute(net, q, shard.table);
  shard.entries.emplace(q, snap);
  return snap;
}

RouteCacheStats RouteCache::stats() const {
  RouteCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.compute_ns = compute_ns_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.arena_bytes += shard.table.arena_bytes();
    out.entries += shard.entries.size();
    out.paths += shard.table.num_paths();
  }
  return out;
}

}  // namespace pnet::routing
