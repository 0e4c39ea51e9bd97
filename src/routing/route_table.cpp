#include "routing/route_table.hpp"

#include <algorithm>

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

void TagIndex::insert(std::uint32_t tag, std::uint32_t id) {
  if ((size_ + 1) * 4 > slots_.size() * 3) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.tag == 0) continue;
      std::size_t i = slot.tag & mask;
      while (slots_[i].tag != 0) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = tag & mask;
  while (slots_[i].tag != 0) i = (i + 1) & mask;
  slots_[i] = {id, tag};
  ++size_;
}

PathRef RouteTable::intern(int plane, std::span<const LinkId> links) {
  const std::uint32_t tag = TagIndex::tag_of(content_hash(plane, links));
  const auto same = [&](std::uint32_t id) {
    const Record& path = *paths_.at(id);
    // An empty path owns no slot (and may precede the first chunk).
    return path.plane == plane && path.len == links.size() &&
           (links.empty() || std::equal(links.begin(), links.end(),
                                        links_.at(path.offset)));
  };
  if (const auto id = dedup_.find(tag, same)) return {*id};

  const Record path{plane, links_.append(links),
                    static_cast<std::uint32_t>(links.size())};
  const PathRef ref{paths_.append(std::span<const Record>(&path, 1))};
  links_stored_ += links.size();
  dedup_.insert(tag, ref.id);
  return ref;
}

}  // namespace pnet::routing
