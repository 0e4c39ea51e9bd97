// Compiled path storage: one flat arena of link ids shared by every path.
//
// Route computation (Yen, ECMP enumeration, per-plane shortest) produces
// heap-heavy std::vector<Path> values; the hot paths of the simulators then
// copy them around per flow. A RouteTable "compiles" those paths instead:
// every link sequence lives in one chunked arena, a path is a 12-byte
// PathRef {plane, offset, len}, identical paths are deduplicated on intern,
// and consumers read through PathView — a non-owning span that supports the
// same accessors as Path without copying.
//
// Storage is chunked (fixed-size slabs that never move) so published paths
// stay readable while another thread interns new ones into the same table;
// see route_cache.hpp for the synchronization contract. Slabs are raw
// storage: intern() constructs the slots it fills, so a table touches only
// the memory its paths use, not a whole 256 KiB slab.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "routing/path.hpp"

namespace pnet::routing {

/// Handle to one interned path. Stable for the lifetime of its RouteTable;
/// meaningless without it.
struct PathRef {
  std::int32_t plane = 0;
  std::uint32_t offset = 0;
  std::uint32_t len = 0;

  friend bool operator==(const PathRef&, const PathRef&) = default;
};

/// Non-owning view of an interned (or any contiguous) link sequence. The
/// cheap replacement for passing routing::Path by value in hot paths.
class PathView {
 public:
  PathView() = default;
  PathView(int plane, std::span<const LinkId> links)
      : plane_(plane), links_(links) {}
  /// View over an ordinary Path (no interning required).
  explicit PathView(const Path& path)
      : plane_(path.plane), links_(path.links) {}

  [[nodiscard]] int plane() const { return plane_; }
  [[nodiscard]] std::span<const LinkId> links() const { return links_; }
  [[nodiscard]] int hops() const { return static_cast<int>(links_.size()); }
  [[nodiscard]] bool empty() const { return links_.empty(); }

  /// Endpoint / latency accessors mirroring Path; invalid id (latency 0) on
  /// an empty view, same contract as Path::src/dst.
  [[nodiscard]] NodeId src(const topo::Graph& g) const {
    return links_.empty() ? NodeId{} : g.link(links_.front()).src;
  }
  [[nodiscard]] NodeId dst(const topo::Graph& g) const {
    return links_.empty() ? NodeId{} : g.link(links_.back()).dst;
  }
  [[nodiscard]] SimTime latency(const topo::Graph& g) const {
    SimTime total = 0;
    for (LinkId id : links_) total += g.link(id).latency;
    return total;
  }

  /// Deep copy back into an owning Path, for the transport boundary.
  [[nodiscard]] Path materialize() const {
    Path path;
    path.plane = plane_;
    path.links.assign(links_.begin(), links_.end());
    return path;
  }

 private:
  int plane_ = 0;
  std::span<const LinkId> links_;
};

/// Arena + dedup index. Append-only: interned paths are never evicted, so
/// PathRefs and PathViews stay valid as long as the table lives.
class RouteTable {
 public:
  RouteTable();

  /// Interns (deduplicating by content) and returns the handle. Not thread
  /// safe; callers serialize interning per table (RouteCache does this with
  /// its shard mutex).
  PathRef intern(const Path& path) {
    return intern(path.plane, std::span<const LinkId>(path.links));
  }
  PathRef intern(int plane, std::span<const LinkId> links);

  /// Resolves a handle produced by this table. Safe to call concurrently
  /// with intern() provided the ref was published with proper
  /// synchronization (interned slabs never move).
  [[nodiscard]] PathView view(const PathRef& ref) const {
    if (ref.len == 0) return {static_cast<int>(ref.plane), {}};
    return {static_cast<int>(ref.plane),
            std::span<const LinkId>(data(ref.offset), ref.len)};
  }

  /// Distinct paths interned (post-dedup).
  [[nodiscard]] std::size_t num_paths() const { return paths_; }
  /// Link ids actually stored (post-dedup, excluding chunk padding).
  [[nodiscard]] std::size_t links_stored() const { return links_stored_; }
  /// Bytes of arena storage allocated (whole chunks), touched or not: a
  /// slab's untouched tail is address space, not resident memory.
  [[nodiscard]] std::size_t arena_bytes() const {
    return chunks_.size() * kChunkLinks * sizeof(LinkId);
  }

 private:
  /// 64K links (256 KiB) per slab; a path never spans two slabs.
  static constexpr std::size_t kChunkLinks = std::size_t{1} << 16;

  /// Frees a slab without running destructors (LinkId has none to run).
  struct SlabDelete {
    void operator()(LinkId* slab) const { ::operator delete(slab); }
  };
  using Slab = std::unique_ptr<LinkId, SlabDelete>;
  static_assert(std::is_trivially_destructible_v<LinkId>);

  [[nodiscard]] const LinkId* data(std::uint32_t offset) const {
    return chunks_[offset / kChunkLinks].get() + offset % kChunkLinks;
  }

  /// Only slots below next_offset_ that a path was copied into are live.
  std::vector<Slab> chunks_;
  std::size_t next_offset_ = 0;  // first free arena slot
  std::size_t links_stored_ = 0;
  std::size_t paths_ = 0;
  /// Content hash -> refs with that hash (chained for collisions).
  std::unordered_map<std::uint64_t, std::vector<PathRef>> dedup_;
};

}  // namespace pnet::routing
