// Discrete-event core, modelled after htsim's EventList: sources register
// wake-ups at absolute simulated times; the queue dispatches them in time
// order. Ties dispatch in scheduling order, so runs are fully
// deterministic.
//
// The queue is a monotone radix queue. schedule_at clamps every key to
// now(), and now() never falls below `last_`, the time of the batch being
// dispatched, so no key is ever below `last_`. An entry lives in bucket
// std::bit_width(when ^ last_): bucket 0 holds the entries at `last_`
// itself, bucket b > 0 those whose highest bit differing from `last_` is
// bit b - 1. Every entry of a lower bucket is earlier than every entry of
// a higher one, so the earliest pending time is the minimum of the lowest
// non-empty bucket; each bucket keeps that minimum, updated on append.
// When bucket 0 runs dry the lowest non-empty bucket is redistributed
// against its own minimum (the new `last_`): its entries all land in
// lower buckets, and the entries of higher buckets keep their index. Each
// entry moves at most 63 times over its life, and far-future entries
// (idle RTO timers) sit untouched in high buckets, so the cost of an
// event does not grow with how many of them are pending.
//
// The order is exactly the (when, scheduling order) order of a heap keyed
// by a sequence number. Buckets are FIFO lists: entries with equal `when`
// always share a bucket, appends and redistributions both go to the tail,
// and a redistribution walks its list head to tail into buckets that are
// empty (they sit below the lowest non-empty one). So equal-time entries
// leave a bucket in the order they were scheduled, and no sequence number
// is stored. Peeks (next_time(), horizon(), advance_to()) never move
// `last_`: between epochs the shard coordinator schedules below a minimum
// it has only peeked at, so `last_` is set, and a bucket redistributed,
// only once a batch is about to dispatch. tests/dataplane_test.cpp's
// HeapReference suite pins the order against the 4-ary heap this replaced.
//
// Entries are 24-byte nodes (when, source, next index, tag) in one pool
// with an intrusive free list, so the pool's size is the reservation:
// reserve()/request_capacity() size it up front, and the dispatch counter
// feeds the events/sec throughput metric of the experiment runner.
//
// Wake-ups are tagged. schedule_at stamps the source's generation into the
// node's tag, and run_batch frees and counts every entry but calls the
// handler only while the tag still equals the source's generation.
// sim::FlowFactory bumps an endpoint's generation when it retires the
// endpoint, and a later flow that reuses it keeps the new value. The
// retired flow had completed, so each of its leftover RTO wake-ups would
// have returned at once. They stay in the stream as counted no-ops, so
// dispatch order and dispatched() are those of a run that never recycles,
// and none of them reaches the next flow.
//
// Dispatch is batched by timestamp: run_batch() drains every entry at the
// earliest pending `when` — bucket 0 — including entries the dispatched
// handlers schedule at that instant, which append behind everything
// already pending there. The dispatch order is therefore byte-identical
// to one-at-a-time dispatch, while same-instant cascades (queue drain ->
// pipe delivery -> ACK-clocked send) run as one straight-line loop with a
// single clock/audit touch.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/audit.hpp"
#include "util/cancel.hpp"
#include "util/units.hpp"

namespace pnet::sim {

class EventSource {
 public:
  virtual ~EventSource() = default;
  /// Called when a scheduled wake-up fires.
  virtual void do_next_event() = 0;

  /// Wake-up tag: schedule_at stamps it on the entry, and the entry calls
  /// do_next_event() only while the two still match. sim::FlowFactory
  /// bumps it when it retires a transport endpoint for reuse, which turns
  /// every wake-up still pending for the finished flow into a counted
  /// no-op; every other source keeps generation 0 for life.
  [[nodiscard]] std::uint32_t generation() const { return generation_; }
  void set_generation(std::uint32_t generation) { generation_ = generation; }

 private:
  std::uint32_t generation_ = 0;
};

class EventQueue {
 public:
  /// Cancellation poll stride: the token is checked once per at least this
  /// many dispatched events. 1024 keeps the poll (an atomic load, or a
  /// clock read when a deadline is armed) far below 0.1% of dispatch cost
  /// while still bounding cancel latency to ~a microsecond of real work.
  static constexpr std::uint64_t kCancelStride = 1024;

  /// "No pending event": next_time() for an empty queue. The maximum
  /// SimTime, so min-reductions over several queues (the shard barrier's
  /// horizon computation) naturally ignore empty queues instead of letting
  /// an idle shard pin the horizon at 0.
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  [[nodiscard]] SimTime now() const { return now_; }

  /// Timestamp of the earliest pending event, or kNever when empty.
  [[nodiscard]] SimTime next_time() const {
    return occupied_ == 0 ? kNever
                          : buckets_[std::countr_zero(occupied_)].min;
  }

  /// How far this queue is known to have no work before `deadline`: the
  /// earliest pending event, or — for an empty (drained or idle) queue —
  /// the deadline itself. An empty shard's horizon is the deadline, never
  /// 0, so one idle plane cannot stall a conservative barrier.
  [[nodiscard]] SimTime horizon(SimTime deadline) const {
    return std::min(deadline, next_time());
  }

  /// Attaches a cooperative-cancellation token; run()/run_until() return
  /// early (leaving events pending) once it fires. Pass nullptr to detach.
  /// The token must outlive the queue's run calls.
  void set_cancel(const util::CancelToken* cancel) { cancel_ = cancel; }

  /// Attaches an invariant auditor checking event-time monotonicity on
  /// every dispatched batch. Pass nullptr to detach.
  void set_audit(util::Audit* audit) { audit_ = audit; }
  /// The attached auditor, or nullptr; sources on this queue audit into it.
  [[nodiscard]] util::Audit* audit() const { return audit_; }

  /// Preallocates the node pool for `events` pending entries and arms
  /// regrowth tracking: from now on any pool reallocation is counted in
  /// regrowths(), which SimHarness::audit_check treats as an invariant
  /// violation (the steady state is supposed to be allocation-free).
  void reserve(std::size_t events) {
    if (events > nodes_.capacity()) nodes_.reserve(events);
    reserved_ = true;
  }

  /// Grows the reservation (amortized doubling) as sources are added
  /// incrementally — e.g. FlowFactory creating endpoints one at a time.
  /// No-op when current capacity already suffices.
  void request_capacity(std::size_t events) {
    if (events <= nodes_.capacity()) return;
    nodes_.reserve(std::max(events, nodes_.capacity() * 2));
    reserved_ = true;
  }

  /// True once reserve()/request_capacity() armed regrowth tracking.
  [[nodiscard]] bool reserved() const { return reserved_; }
  [[nodiscard]] std::size_t capacity() const { return nodes_.capacity(); }
  /// Node-pool reallocations observed after reserve() — 0 in a correctly
  /// sized steady state.
  [[nodiscard]] std::uint64_t regrowths() const { return regrowths_; }

  void schedule_at(SimTime when, EventSource* source) {
    // Clamp to the present: scheduling "in the past" (e.g. an app reacting
    // to a completion record with a stale timestamp) must never move the
    // clock backwards — and keeps every key at or above last_.
    if (when < now_) when = now_;
    const Node node{when, source, kNil, source->generation()};
    std::uint32_t n = free_;
    if (n != kNil) {
      free_ = nodes_[n].next;
      nodes_[n] = node;
    } else {
      if (reserved_ && nodes_.size() == nodes_.capacity()) ++regrowths_;
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(node);
    }
    append(bucket_of(when), n, when);
    ++size_;
  }
  void schedule_in(SimTime delay, EventSource* source) {
    schedule_at(now_ + delay, source);
  }

  /// Schedules a self-rescheduling driver's wake-up (telemetry sampling,
  /// the control loop). Aux entries dispatch exactly like schedule_at
  /// ones but are excluded from real_pending() — the count such drivers
  /// consult before re-arming. Without the distinction two coexisting
  /// drivers would each count the other as pending simulation work and
  /// ping-pong a drained run() forever. The source MUST call aux_fired()
  /// at the top of its do_next_event to balance the count.
  void schedule_aux_at(SimTime when, EventSource* source) {
    ++aux_pending_;
    schedule_at(when, source);
  }
  /// Balances schedule_aux_at when the aux entry dispatches.
  void aux_fired() {
    if (aux_pending_ > 0) --aux_pending_;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t pending() const { return size_; }
  /// Pending entries that are real simulation work — everything except
  /// the self-rescheduling driver wake-ups placed via schedule_aux_at.
  [[nodiscard]] std::size_t real_pending() const {
    return size_ > aux_pending_ ? size_ - aux_pending_ : 0;
  }
  /// Events dispatched since construction (the runner's throughput unit).
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }

  /// Dispatches every entry at the earliest pending timestamp, in
  /// scheduling order, including events scheduled *at* that timestamp by
  /// the dispatched handlers themselves; returns false when the queue is
  /// empty. See the header comment for why the order matches
  /// one-at-a-time dispatch exactly. A handler endlessly rescheduling
  /// itself at `now` would spin here without a cancel poll — such a
  /// zero-delay loop is a bug that hangs the sim under any dispatch
  /// scheme.
  bool run_batch() {
    if (empty()) return false;
    if ((occupied_ & 1) == 0) settle();
    const SimTime t = last_;
    check_monotonic(t);
    now_ = t;
    Bucket& batch = buckets_[0];
    do {
      const std::uint32_t n = batch.head;
      Node& node = nodes_[n];
      EventSource* const source = node.source;
      const std::uint32_t tag = node.tag;
      batch.head = node.next;
      if (node.next == kNil) occupied_ &= ~std::uint64_t{1};
      // Free the node before dispatch, so a handler rescheduling itself
      // reuses it.
      node.next = free_;
      free_ = n;
      --size_;
      ++dispatched_;
      // A stale wake-up of a recycled source is dispatched and counted,
      // but its handler is not called.
      if (source->generation() == tag) source->do_next_event();
    } while ((occupied_ & 1) != 0);
    return true;
  }

  /// Runs until the queue drains, simulated time exceeds `deadline`, or
  /// an attached CancelToken fires. The clock only advances to
  /// horizon(deadline) = min(deadline, next pending event): when dispatch
  /// stops early (cancel, or events remaining past the deadline) time must
  /// not jump over work still queued, and a drained queue advances to
  /// the deadline itself, never stalling at its last event time.
  void run_until(SimTime deadline) {
    while (!empty() && next_time() <= deadline) {
      if (cancel_poll_due() && cancel_->cancelled()) break;
      run_batch();
    }
    const SimTime stop = horizon(deadline);
    if (now_ < stop) now_ = stop;
  }

  /// Runs every event strictly before `end` (exclusive — events at `end`
  /// itself stay pending). The shard epoch loop uses this: `end` is the
  /// conservative barrier time, and events *at* the barrier may still be
  /// joined by same-instant cross-shard arrivals, so they must wait for
  /// the next epoch. Does not advance the clock past the last dispatched
  /// event; the caller pairs it with advance_to() after the barrier.
  void run_before(SimTime end) {
    while (!empty() && next_time() < end) {
      if (cancel_poll_due() && cancel_->cancelled()) break;
      run_batch();
    }
  }

  /// Advances the clock to min(t, next pending event) without dispatching.
  /// The barrier uses this so an idle shard's now() tracks the epoch time
  /// (its queues/pipes timestamp correctly on the next delivery) while
  /// never jumping over pending work or moving backwards.
  void advance_to(SimTime t) {
    const SimTime stop = std::min(t, next_time());
    if (now_ < stop) now_ = stop;
  }

  /// Runs until the queue drains or an attached CancelToken fires.
  void run() {
    while (!empty()) {
      if (cancel_poll_due() && cancel_->cancelled()) break;
      run_batch();
    }
  }

 private:
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr int kBuckets = 64;

  struct Node {
    SimTime when;
    EventSource* source;
    std::uint32_t next;  // next node in the same bucket or the free list
    std::uint32_t tag;   // source->generation() when scheduled
  };
  static_assert(sizeof(Node) == 24);

  /// A FIFO list of nodes; head, tail and min are stale while empty.
  struct Bucket {
    SimTime min;  // earliest `when` in the bucket
    std::uint32_t head;
    std::uint32_t tail;
  };

  /// Keys are >= last_ >= 0, so when ^ last_ < 2^63 and the index is < 64.
  [[nodiscard]] int bucket_of(SimTime when) const {
    return std::bit_width(static_cast<std::uint64_t>(when ^ last_));
  }

  /// Appends node `n` (due at `when`, its `next` already kNil) to the tail
  /// of bucket `b`.
  void append(int b, std::uint32_t n, SimTime when) {
    Bucket& bucket = buckets_[static_cast<std::size_t>(b)];
    const std::uint64_t bit = std::uint64_t{1} << b;
    if ((occupied_ & bit) != 0) {
      nodes_[bucket.tail].next = n;
      bucket.min = std::min(bucket.min, when);
    } else {
      bucket.head = n;
      bucket.min = when;
      occupied_ |= bit;
    }
    bucket.tail = n;
  }

  /// Bucket 0 is empty: makes the earliest pending time the new last_ and
  /// redistributes the lowest non-empty bucket against it, head to tail,
  /// which fills bucket 0 with that time's entries in scheduling order.
  void settle() {
    const int b = std::countr_zero(occupied_);
    const Bucket& bucket = buckets_[static_cast<std::size_t>(b)];
    last_ = bucket.min;
    occupied_ &= ~(std::uint64_t{1} << b);
    for (std::uint32_t n = bucket.head; n != kNil;) {
      Node& node = nodes_[n];
      const std::uint32_t next = node.next;
      node.next = kNil;
      append(bucket_of(node.when), n, node.when);
      n = next;
    }
  }

  /// True when a token is attached and at least kCancelStride events have
  /// been dispatched since the last poll. Threshold-based (not a modulo of
  /// dispatched_) because batch dispatch advances the counter in jumps.
  [[nodiscard]] bool cancel_poll_due() {
    if (cancel_ == nullptr || dispatched_ < next_cancel_poll_) return false;
    next_cancel_poll_ = dispatched_ + kCancelStride;
    return true;
  }

  void check_monotonic(SimTime when) {
    if (audit_ == nullptr) return;
    audit_->note_check();
    // schedule_at clamps to the present, so a dispatch before now_ means
    // the queue order itself broke.
    if (when < now_) {
      audit_->fail("event time moved backwards: dispatching t=" +
                   std::to_string(when) + " with clock at t=" +
                   std::to_string(now_));
    }
  }

  std::vector<Node> nodes_;
  std::array<Bucket, kBuckets> buckets_{};
  std::uint64_t occupied_ = 0;  // bit b set <=> bucket b is non-empty
  std::uint32_t free_ = kNil;
  std::size_t size_ = 0;
  SimTime last_ = 0;
  std::size_t aux_pending_ = 0;
  SimTime now_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t next_cancel_poll_ = 0;
  bool reserved_ = false;
  std::uint64_t regrowths_ = 0;
  const util::CancelToken* cancel_ = nullptr;
  util::Audit* audit_ = nullptr;
};

}  // namespace pnet::sim
