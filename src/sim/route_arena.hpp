// Compiled route storage: one chunked arena of PacketSink* spans shared by
// every route in a SimNetwork — the sim-layer twin of routing::RouteTable's
// PathRef/PathView split.
//
// Sink chains live in fixed-size slabs that never move, and Route headers
// in slabs of their own (stable addresses: packets and transports hold
// `const Route*`), so interning a chain costs no per-route allocation.
// There is no dedup: every chain ends at its own transport endpoint, so no
// two chains of different flows are equal (a content-hash index over the
// chains never hit). Instead the arena recycles: sim::FlowFactory releases
// every chain of a flow it retires, and the arena keeps one free list per
// chain length, which intern() serves before it carves new storage. A
// closed loop of short flows therefore holds chains for its live and
// draining flows only, not for every flow it ever started.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/packet.hpp"

namespace pnet::sim {

class RouteArena {
 public:
  /// Stores a forwarding chain and returns a stable pointer, valid until
  /// the chain is released. Not thread safe: the shard coordinator builds
  /// every route.
  const Route* intern(std::span<PacketSink* const> sinks, int hop_count);

  /// Hands `route`'s storage back for a later chain of the same length.
  /// No packet or endpoint may still hold it.
  void release(const Route* route);

  /// Chains interned over the arena's life, released ones included.
  [[nodiscard]] std::size_t num_routes() const { return num_routes_; }
  /// Bytes of arena storage allocated (whole slabs).
  [[nodiscard]] std::size_t arena_bytes() const {
    return sink_chunks_.size() * kSinkChunk * sizeof(PacketSink*) +
           route_chunks_.size() * kRouteChunk * sizeof(Route);
  }

 private:
  /// 4096 sink pointers (32 KiB) per slab; a chain never spans two slabs.
  /// Chains longer than a slab (unseen in practice: a chain is
  /// 2*hops+1 entries) get a dedicated exact-size slab.
  static constexpr std::size_t kSinkChunk = std::size_t{1} << 12;
  /// 1024 Route headers per slab.
  static constexpr std::size_t kRouteChunk = std::size_t{1} << 10;

  PacketSink** alloc_sinks(std::size_t count);
  Route* alloc_route();

  std::vector<std::unique_ptr<PacketSink*[]>> sink_chunks_;
  std::size_t sink_used_ = kSinkChunk;  // used slots in the newest slab
  std::vector<std::unique_ptr<Route[]>> route_chunks_;
  std::size_t route_used_ = kRouteChunk;
  std::size_t num_routes_ = 0;
  /// free_[n]: released routes whose chains hold n sinks.
  std::vector<std::vector<Route*>> free_;
};

}  // namespace pnet::sim
