// Packets, routes and the slab pool that recycles packet objects.
//
// As in htsim, forwarding is source-routed: a packet carries a pointer to an
// immutable Route (a chain of PacketSinks — queues, pipes, and a transport
// endpoint last) plus the index of its next hop. There are no switch
// forwarding tables; path selection happened at the end host, which is
// exactly the P-Net model (section 3.4).
//
// Memory layout (the data-plane half of DESIGN.md §5h):
//  * Packets live in contiguous 4K-packet slabs owned by PacketPool.
//    Addresses are stable (slabs never move), so Packet* stays the working
//    currency of the hot path, while PacketRef gives a compact 4-byte
//    index handle for tables that should not store pointers.
//  * Every Packet carries an intrusive `next` link, so the pool free list,
//    queue FIFOs (sim::Queue) and pipe in-flight lists (sim::Pipe) are all
//    singly-linked lists threaded through the slabs — zero allocations on
//    the enqueue/dequeue/recycle paths.
//  * Routes are interned in sim::RouteArena (one arena per SimNetwork);
//    Route itself is a non-owning {span, hop_count} view, mirroring the
//    routing layer's PathRef/PathView split.
#pragma once

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/ids.hpp"
#include "util/units.hpp"

namespace pnet::sim {

struct Packet;

class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void receive(Packet& packet) = 0;
  /// A queue dropped a packet whose route ends at this sink. Transport
  /// endpoints count these to know when none of their packets is in
  /// flight; called from the dropping queue's shard thread.
  virtual void packet_lost() {}
};

/// An immutable forwarding chain. `hop_count` is the number of physical
/// links the route crosses (queues == links; pipes do not add hops).
/// Non-owning: the sink span points into a RouteArena slab (production) or
/// caller-owned storage (OwnedRoute, tests).
struct Route {
  std::span<PacketSink* const> sinks;
  int hop_count = 0;
};

/// Compact index handle to a pooled packet: slab slot, stable for the
/// lifetime of the PacketPool. Meaningless without its pool.
struct PacketRef {
  static constexpr std::uint32_t kNull = 0xFFFF'FFFF;
  std::uint32_t v = kNull;

  [[nodiscard]] bool null() const { return v == kNull; }
  friend bool operator==(const PacketRef&, const PacketRef&) = default;
};

/// Exactly one cache line (64 bytes, asserted below): a forwarding event
/// touches a packet long after it went cold, so every line the hot path
/// does NOT have to load is a cache miss saved. The flags are one-bit
/// bitfields and the narrow fields carry width comments for the same
/// reason.
struct alignas(64) Packet {
  /// Intrusive link: threads this packet through exactly one container at
  /// a time — the pool free list, a queue FIFO, or a pipe in-flight list.
  Packet* next = nullptr;
  const Route* route = nullptr;
  /// Byte offset of the first payload byte (data), or unused for ACKs.
  std::uint64_t seq = 0;
  /// Cumulative ACK: the next byte the receiver expects.
  std::uint64_t ack_seq = 0;
  /// Timestamp echoed by the receiver so the sender can sample RTT without
  /// keeping per-packet state (Karn's rule: not echoed for retransmits).
  SimTime ts_echo = -1;
  /// Scratch timestamp owned by the container currently holding the packet
  /// (sim::Pipe stores the delivery deadline here).
  SimTime due = 0;
  FlowId flow;
  std::uint32_t size_bytes = 0;
  std::uint16_t next_hop = 0;
  /// MPTCP subflow index (0 for plain TCP; connections have ≤ a handful).
  std::int8_t subflow = 0;
  bool is_ack : 1 = false;
  bool retransmitted : 1 = false;
  /// ECN: Congestion Experienced, set by a queue above its marking
  /// threshold (data packets); echoed back to the sender on ACKs.
  bool ecn_ce : 1 = false;
  bool ecn_echo : 1 = false;
  /// NDP-style trimming: an overloaded queue cut this data packet to its
  /// header. The receiver learns WHAT was lost instantly and NACKs it.
  bool trimmed : 1 = false;
  /// On ACKs: this is (also) a NACK for the segment starting at `seq`.
  bool is_nack : 1 = false;

  /// The packet's slab-slot handle within its pool.
  [[nodiscard]] PacketRef ref() const { return PacketRef{self_}; }

  /// Hands the packet to the next sink on its route.
  void forward() {
    assert(route != nullptr && next_hop < route->sinks.size());
    PacketSink* sink = route->sinks[next_hop++];
    sink->receive(*this);
  }

 private:
  friend class PacketPool;
  /// Slab slot index, assigned once when the slot is first handed out and
  /// preserved across recycles.
  std::uint32_t self_ = PacketRef::kNull;
};

static_assert(sizeof(Packet) == 64,
              "Packet must stay one cache line; see DESIGN.md §5h");

/// Intrusive FIFO threaded through Packet::next. A packet may sit in at
/// most one list at a time (enforced by the data plane's ownership
/// hand-offs, not by the list). Zero allocations; O(1) push/pop.
class PacketList {
 public:
  void push_back(Packet* packet) {
    packet->next = nullptr;
    if (tail_ == nullptr) {
      head_ = packet;
    } else {
      tail_->next = packet;
    }
    tail_ = packet;
    ++size_;
  }

  Packet* pop_front() {
    assert(head_ != nullptr);
    Packet* packet = head_;
    head_ = packet->next;
    if (head_ == nullptr) tail_ = nullptr;
    packet->next = nullptr;
    --size_;
    return packet;
  }

  [[nodiscard]] Packet* front() const { return head_; }
  [[nodiscard]] bool empty() const { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  Packet* head_ = nullptr;
  Packet* tail_ = nullptr;
  std::size_t size_ = 0;
};

/// Slab pool. Millions of packets flow through a run; packets are stored
/// in contiguous 4K-packet slabs (stable addresses, index-addressable via
/// PacketRef) and recycled through an intrusive LIFO free list, so the
/// steady-state forwarding path never touches the allocator.
class PacketPool {
 public:
  /// Packets per slab: 4096 * sizeof(Packet) = 256 KiB per slab.
  static constexpr std::size_t kSlabPackets = 4096;

  Packet* allocate() {
    if (free_head_ != nullptr) {
      Packet* p = free_head_;
      free_head_ = p->next;
      --free_count_;
      const std::uint32_t self = p->self_;
      *p = Packet{};  // full field reset for the new lifetime
      p->self_ = self;
      return p;
    }
    if (bump_ == kSlabPackets) {
      // Raw storage: a slot is constructed when first handed out, so a pool
      // touches only the slots it has used — a shard that sees few packets
      // does not pay for a whole slab.
      Slab slab(static_cast<Packet*>(::operator new[](
          kSlabPackets * sizeof(Packet), std::align_val_t{alignof(Packet)})));
      slabs_.push_back(std::move(slab));
      bump_ = 0;
    }
    Packet* p = new (&slabs_.back().get()[bump_]) Packet{};
    p->self_ = static_cast<std::uint32_t>((slabs_.size() - 1) * kSlabPackets +
                                          bump_);
    ++bump_;
    ++constructed_;
    return p;
  }

  void free(Packet* packet) {
    packet->next = free_head_;
    free_head_ = packet;
    ++free_count_;
  }

  /// Allocates a packet carrying a field-for-field copy of `src` (which may
  /// live in a different pool). The clone keeps THIS pool's slab-slot handle
  /// and starts unlinked — cross-shard handoff re-homes a packet by cloning
  /// into the destination shard's pool and freeing the original.
  Packet* clone(const Packet& src) {
    Packet* p = allocate();
    const std::uint32_t self = p->self_;
    *p = src;
    p->self_ = self;
    p->next = nullptr;
    return p;
  }

  /// Resolves a handle produced by this pool (Packet::ref()).
  [[nodiscard]] Packet& get(PacketRef ref) {
    assert(ref.v < constructed_ || ref.v < slabs_.size() * kSlabPackets);
    return slabs_[ref.v / kSlabPackets].get()[ref.v % kSlabPackets];
  }
  [[nodiscard]] const Packet& get(PacketRef ref) const {
    return const_cast<PacketPool*>(this)->get(ref);
  }

  /// Packets ever handed out (slab slots in use, free or live).
  [[nodiscard]] std::size_t allocated() const { return constructed_; }
  [[nodiscard]] std::size_t live() const {
    return constructed_ - free_count_;
  }
  [[nodiscard]] std::size_t slabs() const { return slabs_.size(); }
  [[nodiscard]] std::size_t slab_bytes() const {
    return slabs_.size() * kSlabPackets * sizeof(Packet);
  }

 private:
  /// Frees a slab without running destructors (Packet has none to run).
  struct SlabDelete {
    void operator()(Packet* slab) const {
      ::operator delete[](slab, std::align_val_t{alignof(Packet)});
    }
  };
  using Slab = std::unique_ptr<Packet, SlabDelete>;
  static_assert(std::is_trivially_destructible_v<Packet>);

  std::vector<Slab> slabs_;
  std::size_t bump_ = kSlabPackets;  // next fresh slot in the newest slab
  std::size_t constructed_ = 0;
  Packet* free_head_ = nullptr;
  std::size_t free_count_ = 0;
};

/// Owning Route builder for tests/benches that wire ad-hoc sink chains.
/// Production routes are interned in sim::RouteArena instead. Not copyable
/// or movable: the published Route points into this object's storage.
class OwnedRoute {
 public:
  OwnedRoute() = default;
  OwnedRoute(std::initializer_list<PacketSink*> sinks, int hop_count = 0) {
    assign(std::vector<PacketSink*>(sinks), hop_count);
  }
  OwnedRoute(const OwnedRoute&) = delete;
  OwnedRoute& operator=(const OwnedRoute&) = delete;

  void assign(std::vector<PacketSink*> sinks, int hop_count = 0) {
    sinks_ = std::move(sinks);
    route_.sinks = sinks_;
    route_.hop_count = hop_count;
  }
  void assign(std::initializer_list<PacketSink*> sinks, int hop_count = 0) {
    assign(std::vector<PacketSink*>(sinks), hop_count);
  }

  [[nodiscard]] const Route* get() const { return &route_; }
  [[nodiscard]] const Route* operator&() const { return &route_; }

 private:
  std::vector<PacketSink*> sinks_;
  Route route_;
};

}  // namespace pnet::sim
