#include "routing/route_table.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "util/rng.hpp"

namespace pnet::routing {

namespace {

std::uint64_t content_hash(int plane, std::span<const LinkId> links) {
  std::uint64_t h = mix64(0x9E3779B97F4A7C15ULL ^
                          static_cast<std::uint64_t>(
                              static_cast<std::uint32_t>(plane)));
  for (LinkId id : links) {
    h = mix64(h ^ static_cast<std::uint64_t>(
                      static_cast<std::uint32_t>(id.v)));
  }
  return h;
}

}  // namespace

RouteTable::RouteTable() {
  // Reserve the chunk-pointer directory up front so growing the table never
  // relocates it: concurrent readers index chunks_ without a lock (see the
  // RouteCache synchronization contract), which is only safe because
  // push_back below this capacity writes a fresh slot instead of
  // reallocating. 4096 slabs = 2^28 links, far beyond any experiment.
  chunks_.reserve(4096);
}

PathRef RouteTable::intern(int plane, std::span<const LinkId> links) {
  assert(links.size() < kChunkLinks && "path longer than an arena slab");
  const std::uint64_t hash = content_hash(plane, links);
  auto& bucket = dedup_[hash];
  for (const PathRef& ref : bucket) {
    if (ref.plane != plane || ref.len != links.size()) continue;
    // An empty path owns no slot (and may precede the first slab).
    if (links.empty() ||
        std::equal(links.begin(), links.end(), data(ref.offset))) {
      return ref;
    }
  }

  // A path never straddles slabs: pad to the next slab when it won't fit.
  const std::size_t room = chunks_.size() * kChunkLinks - next_offset_;
  if (links.size() > room) next_offset_ = chunks_.size() * kChunkLinks;
  if (next_offset_ + links.size() > chunks_.size() * kChunkLinks) {
    // Raw storage: slots are constructed by the copy below, so pages no
    // path reaches are never written.
    chunks_.emplace_back(
        static_cast<LinkId*>(::operator new(kChunkLinks * sizeof(LinkId))));
  }

  PathRef ref;
  ref.plane = plane;
  ref.offset = static_cast<std::uint32_t>(next_offset_);
  ref.len = static_cast<std::uint32_t>(links.size());
  if (!links.empty()) {
    std::uninitialized_copy(links.begin(), links.end(),
                            chunks_[next_offset_ / kChunkLinks].get() +
                                next_offset_ % kChunkLinks);
  }
  next_offset_ += links.size();
  links_stored_ += links.size();
  ++paths_;
  bucket.push_back(ref);
  return ref;
}

}  // namespace pnet::routing
