// Compiled path storage: one chunked arena of link ids shared by every path.
//
// Route computation (Yen, ECMP enumeration, per-plane shortest) produces
// heap-heavy std::vector<Path> values; the hot paths of the simulators then
// copy them around per flow. A RouteTable "compiles" those paths instead:
// every link sequence lives in one chunked arena, a path is a 4-byte
// PathRef (its index in the table), identical paths are deduplicated on
// intern, and consumers read through PathView — a non-owning span that
// supports the same accessors as Path without copying.
//
// Storage is ChunkedArrays (chunks that never move) so published paths stay
// readable while another thread interns new ones into the same table; see
// route_cache.hpp for the synchronization contract. A distinct path costs
// its links, a 12-byte record {plane, offset, len} and one 8-byte slot of
// a TagIndex, the open-addressed dedup index: no heap object of its own.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "routing/path.hpp"

namespace pnet::routing {

/// Append-only storage for trivially copyable T, in chunks that never move:
/// chunk c holds kFirst << c slots, so n items take about log2(n / kFirst)
/// allocations. A run added by extend() or append() is contiguous (it never
/// straddles two chunks; the skipped tail of a chunk stays untouched), so a
/// reader may hold a span over it. The chunk directory is a fixed array, so
/// at() may run on one thread while another appends, for any index whose
/// run was published to the reader (e.g. through a mutex). Chunks are raw
/// storage: only the slots a run fills are ever written.
template <typename T, std::size_t kFirst>
class ChunkedArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);
  static_assert(std::has_single_bit(kFirst));

 public:
  ChunkedArray() = default;
  ChunkedArray(const ChunkedArray&) = delete;
  ChunkedArray& operator=(const ChunkedArray&) = delete;
  ~ChunkedArray() {
    for (T* chunk : chunks_) ::operator delete(chunk);
  }

  /// Reserves `n` contiguous slots and returns the index of the first; the
  /// caller fills them through at(). n == 0 reserves nothing.
  std::uint32_t extend(std::size_t n) {
    if (n == 0) return static_cast<std::uint32_t>(size_);
    int c = chunk_of(size_);
    while (size_ + n > chunk_start(c + 1)) {  // skip to a chunk that fits
      ++c;
      size_ = chunk_start(c);
    }
    assert(c < kMaxChunks && chunk_start(c + 1) <= (std::size_t{1} << 32));
    if (chunks_[static_cast<std::size_t>(c)] == nullptr) {
      chunks_[static_cast<std::size_t>(c)] =
          static_cast<T*>(::operator new(chunk_size(c) * sizeof(T)));
      bytes_ += chunk_size(c) * sizeof(T);
    }
    const auto first = static_cast<std::uint32_t>(size_);
    size_ += n;
    return first;
  }

  /// Copies `items` into one contiguous run; returns its first index.
  std::uint32_t append(std::span<const T> items) {
    const std::uint32_t first = extend(items.size());
    if (!items.empty()) {
      std::uninitialized_copy(items.begin(), items.end(), at(first));
    }
    return first;
  }

  [[nodiscard]] T* at(std::uint32_t index) {
    const int c = chunk_of(index);
    return chunks_[static_cast<std::size_t>(c)] + (index - chunk_start(c));
  }
  [[nodiscard]] const T* at(std::uint32_t index) const {
    const int c = chunk_of(index);
    return chunks_[static_cast<std::size_t>(c)] + (index - chunk_start(c));
  }

  /// Bytes of the chunks allocated, touched or not.
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

 private:
  static constexpr int kMaxChunks = 32;

  static constexpr std::size_t chunk_size(int c) { return kFirst << c; }
  /// Index of chunk c's first slot.
  static constexpr std::size_t chunk_start(int c) {
    return kFirst * ((std::size_t{1} << c) - 1);
  }
  static int chunk_of(std::size_t index) {
    return std::bit_width(index / kFirst + 1) - 1;
  }

  std::array<T*, kMaxChunks> chunks_{};
  std::size_t size_ = 0;  // first free slot
  std::size_t bytes_ = 0;
};

/// Open-addressed index of 32-bit ids by 32-bit hash tag: linear probing,
/// power-of-two size, at most 3/4 full. It keeps no keys: find() offers the
/// ids stored under a tag to a caller's predicate, which compares them
/// against the caller's own records.
class TagIndex {
 public:
  /// The tag of a 64-bit hash: its high half, with 0 (the empty-slot mark)
  /// mapped to 1.
  static std::uint32_t tag_of(std::uint64_t hash) {
    const auto tag = static_cast<std::uint32_t>(hash >> 32);
    return tag == 0 ? 1 : tag;
  }

  /// The first id stored under `tag` that `same` accepts, if any.
  template <typename Same>
  [[nodiscard]] std::optional<std::uint32_t> find(std::uint32_t tag,
                                                  Same same) const {
    if (slots_.empty()) return std::nullopt;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = tag & mask; slots_[i].tag != 0; i = (i + 1) & mask) {
      if (slots_[i].tag == tag && same(slots_[i].id)) return slots_[i].id;
    }
    return std::nullopt;
  }

  /// Adds `id` under `tag`, doubling the slot array first when the index
  /// would pass 3/4 full.
  void insert(std::uint32_t tag, std::uint32_t id);

  /// Ids inserted.
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Heap bytes of the slot array.
  [[nodiscard]] std::size_t bytes() const {
    return slots_.capacity() * sizeof(Slot);
  }

 private:
  struct Slot {
    std::uint32_t id = 0;
    std::uint32_t tag = 0;  // 0 = empty
  };

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// Handle to one interned path: its index among the table's distinct
/// paths. Stable for the lifetime of its RouteTable; meaningless without it.
struct PathRef {
  std::uint32_t id = 0;

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
  /// Interns (deduplicating by content) and returns the handle. Not thread
  /// safe; callers serialize interning per table (RouteCache does this with
  /// its shard mutex).
  PathRef intern(const Path& path) {
    return intern(path.plane, std::span<const LinkId>(path.links));
  }
  PathRef intern(int plane, std::span<const LinkId> links);

  /// Resolves a handle produced by this table. Safe to call concurrently
  /// with intern() provided the ref was published with proper
  /// synchronization (arena chunks never move).
  [[nodiscard]] PathView view(const PathRef& ref) const {
    const Record& path = *paths_.at(ref.id);
    if (path.len == 0) return {path.plane, {}};
    return {path.plane,
            std::span<const LinkId>(links_.at(path.offset), path.len)};
  }

  /// Distinct paths interned (post-dedup).
  [[nodiscard]] std::size_t num_paths() const { return dedup_.size(); }
  /// Link ids actually stored (post-dedup, excluding chunk padding).
  [[nodiscard]] std::size_t links_stored() const { return links_stored_; }
  /// Bytes of link arena allocated (whole chunks), touched or not: a
  /// chunk's untouched tail is address space, not resident memory.
  [[nodiscard]] std::size_t arena_bytes() const { return links_.bytes(); }
  /// Heap bytes the table holds: link arena, path records, dedup index.
  [[nodiscard]] std::size_t heap_bytes() const {
    return links_.bytes() + paths_.bytes() + dedup_.bytes();
  }

 private:
  /// Where a path's links live.
  struct Record {
    std::int32_t plane = 0;
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
  };

  ChunkedArray<LinkId, 1024> links_;
  ChunkedArray<Record, 256> paths_;
  std::size_t links_stored_ = 0;
  /// Path ids by content hash.
  TagIndex dedup_;
};

}  // namespace pnet::routing
