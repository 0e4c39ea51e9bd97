#include "sim/route_arena.hpp"

#include <algorithm>

namespace pnet::sim {

const Route* RouteArena::intern(std::span<PacketSink* const> sinks,
                                int hop_count) {
  ++num_routes_;
  Route* route = nullptr;
  PacketSink** storage = nullptr;
  if (sinks.size() < free_.size() && !free_[sinks.size()].empty()) {
    route = free_[sinks.size()].back();
    free_[sinks.size()].pop_back();
    // The arena owns the chain storage; Route only exposes it as const.
    storage = const_cast<PacketSink**>(route->sinks.data());
  } else {
    storage = alloc_sinks(sinks.size());
    route = alloc_route();
  }
  std::copy(sinks.begin(), sinks.end(), storage);
  route->sinks = std::span<PacketSink* const>(storage, sinks.size());
  route->hop_count = hop_count;
  return route;
}

void RouteArena::release(const Route* route) {
  const std::size_t length = route->sinks.size();
  if (length >= free_.size()) free_.resize(length + 1);
  // Every Route comes from alloc_route's mutable slabs.
  free_[length].push_back(const_cast<Route*>(route));
}

PacketSink** RouteArena::alloc_sinks(std::size_t count) {
  if (count > kSinkChunk) {
    // Oversize chain: dedicated exact-size slab, spliced in *before* the
    // current slab so the bump state below stays untouched.
    auto slab = std::make_unique<PacketSink*[]>(count);
    PacketSink** out = slab.get();
    sink_chunks_.insert(sink_chunks_.empty() ? sink_chunks_.end()
                                             : sink_chunks_.end() - 1,
                        std::move(slab));
    return out;
  }
  if (sink_used_ + count > kSinkChunk) {
    sink_chunks_.push_back(std::make_unique<PacketSink*[]>(kSinkChunk));
    sink_used_ = 0;
  }
  PacketSink** out = sink_chunks_.back().get() + sink_used_;
  sink_used_ += count;
  return out;
}

Route* RouteArena::alloc_route() {
  if (route_used_ == kRouteChunk) {
    route_chunks_.push_back(std::make_unique<Route[]>(kRouteChunk));
    route_used_ = 0;
  }
  return &route_chunks_.back()[route_used_++];
}

}  // namespace pnet::sim
