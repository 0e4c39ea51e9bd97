// Plane-sharded simulation core (DESIGN.md §5i) — the packet engine:
// core::SimHarness always runs its packets through one ShardSet.
//
// A P-Net's planes are disjoint by construction — packets never cross
// planes in flight — so the plane boundary is a sharding boundary. Each
// shard owns a private EventQueue, PacketPool, and the Queue/Pipe state of
// one plane; hosts (the only coupling point: NIC + MPTCP scheduler) are
// assigned host % num_shards. Shards advance in conservative-lookahead
// epochs: all shards run events strictly before a common barrier time
// E = min(earliest pending event + lookahead, next control event), where
// lookahead is the minimum latency of any host-adjacent link (the only
// links that can cross shards). Cross-shard deliveries travel as by-value
// packet snapshots through per-(src,dst) handoff mailboxes, drained at the
// barrier in fixed (dst, src, FIFO) order, so the merged event stream is a
// deterministic function of the topology alone — byte-identical for any
// worker count.
//
// Threading model: one coordinator (the caller's thread) plus W-1 workers,
// W = min(sim_threads, num_planes); with W = 1 the coordinator runs every
// shard inline. Phases strictly alternate — during the run phase each
// shard's state is touched only by the thread driving it; during the
// coordinator phase (control events, mailbox integration, deferred
// completions) the coordinator may touch everything while workers spin on
// their epoch atomics. The acquire/release pair on epoch/done is the only
// cross-thread synchronization; there are no locks on any packet path.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/packet.hpp"
#include "util/audit.hpp"
#include "util/cancel.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace pnet::sim {

/// One cross-shard delivery: a by-value snapshot of the packet taken as it
/// entered the crossing link, with `data.due` holding the delivery time at
/// the destination shard (send time + crossing-link latency >= the epoch
/// barrier, which is what makes the handoff conservative).
struct BoundaryMsg {
  Packet data;
};

/// Sorted arrival buffer: packets ordered by due time, FIFO among equal
/// dues (stable insert), consumed from a head cursor so steady-state pops
/// are O(1) and memory is recycled by periodic compaction.
class ArrivalQueue {
 public:
  void insert(Packet* p) {
    maybe_compact();
    auto it = std::upper_bound(
        items_.begin() + static_cast<std::ptrdiff_t>(head_), items_.end(),
        p->due, [](SimTime due, const Packet* q) { return due < q->due; });
    items_.insert(it, p);
  }

  [[nodiscard]] bool empty() const { return head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const { return items_.size() - head_; }
  [[nodiscard]] SimTime next_due() const {
    return empty() ? EventQueue::kNever : items_[head_]->due;
  }

  Packet* pop_front() { return items_[head_++]; }

 private:
  void maybe_compact() {
    if (head_ > 64 && head_ * 2 >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  std::vector<Packet*> items_;  // sorted by due, stable
  std::size_t head_ = 0;
};

/// Destination-side terminal of the handoff protocol: re-injects packets
/// integrated from peer shards into this shard's event stream at their due
/// times. Follows Pipe's one-pending-wake discipline — at most one wake is
/// scheduled per new earliest due, and superseded (stale) wakes deliver
/// nothing and re-arm — so integration bursts cannot flood the event heap
/// past its reservation.
class Arrivals final : public EventSource {
 public:
  explicit Arrivals(EventQueue& events) : events_(events) {}

  /// Coordinator phase only: buffers a re-homed packet. The integrator
  /// calls arm() once per batch, not per insert.
  void insert(Packet* p) { queue_.insert(p); }

  /// Schedules a wake for the earliest buffered arrival unless one is
  /// already pending at or before it.
  void arm() {
    if (queue_.empty()) return;
    const SimTime t = queue_.next_due();
    if (t < armed_) {
      events_.schedule_at(t, this);
      armed_ = t;
    }
  }

  void do_next_event() override {
    while (!queue_.empty() && queue_.next_due() <= events_.now()) {
      Packet* p = queue_.pop_front();
      ++delivered_;
      p->forward();
    }
    armed_ = EventQueue::kNever;
    arm();
  }

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }

 private:
  EventQueue& events_;
  ArrivalQueue queue_;
  /// Earliest wake currently scheduled (kNever when none).
  SimTime armed_ = EventQueue::kNever;
  std::uint64_t delivered_ = 0;
};

/// A completion/repath callback parked until the coordinator phase, so
/// worker threads never touch shared state (FlowLogger, telemetry, the
/// route arena). Drained at each barrier in (at, shard, emit order) — a
/// stable total order independent of the worker count.
struct Deferred {
  SimTime at;
  std::function<void()> fn;
};

/// Everything one shard owns. During the run phase only the driving thread
/// touches this; during the coordinator phase only the coordinator does.
struct Shard {
  EventQueue events;
  PacketPool pool;
  Arrivals arrivals{events};
  /// Outgoing handoff mailboxes, one per destination shard. Written only
  /// by this shard's thread (run phase), drained only by the coordinator.
  std::vector<std::vector<BoundaryMsg>> out;
  std::vector<Deferred> deferred;
  /// Collecting auditor (never fail-fast: a throw on a worker thread would
  /// terminate); merged into the harness auditor on the coordinator.
  util::Audit audit{/*fail_fast=*/false};
  std::uint64_t boundary_sent = 0;        // msgs pushed into out[]
  std::uint64_t boundary_integrated = 0;  // msgs cloned in from peers
};

/// Replaces a Pipe on a route hop whose link crosses shards: snapshots the
/// packet into the owning shard's outbox with due = now + latency and
/// frees the original back to the source pool. The crossing latency rides
/// the boundary (not a pipe on either side), which is exactly what gives
/// the barrier its lookahead.
class BoundaryPipe final : public PacketSink {
 public:
  BoundaryPipe(Shard& src, std::size_t dst, SimTime latency)
      : src_(src), dst_(dst), latency_(latency) {}

  void receive(Packet& packet) override {
    BoundaryMsg msg{packet};
    msg.data.next = nullptr;
    msg.data.due = src_.events.now() + latency_;
    src_.pool.free(&packet);
    src_.out[dst_].push_back(msg);
    ++src_.boundary_sent;
  }

  [[nodiscard]] SimTime latency() const { return latency_; }

 private:
  Shard& src_;
  std::size_t dst_;
  SimTime latency_;
};

class ShardSet {
 public:
  /// One shard per plane; `sim_threads` only sizes the worker pool
  /// (clamped to [1, num_planes]), so the shard layout — and with it every
  /// event timestamp and sequence number — is identical at every thread
  /// count. That is the whole determinism argument.
  ShardSet(int num_planes, int sim_threads);
  ~ShardSet();
  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  [[nodiscard]] std::size_t size() const { return shards_.size(); }
  [[nodiscard]] int workers() const { return workers_; }
  [[nodiscard]] Shard& shard(std::size_t i) { return *shards_[i]; }
  [[nodiscard]] const Shard& shard(std::size_t i) const {
    return *shards_[i];
  }

  [[nodiscard]] std::size_t shard_of_plane(int plane) const {
    return static_cast<std::size_t>(plane);
  }
  [[nodiscard]] std::size_t shard_of_host(HostId host) const {
    return static_cast<std::size_t>(host.v) % shards_.size();
  }
  [[nodiscard]] EventQueue& host_events(HostId host) {
    return shard(shard_of_host(host)).events;
  }
  [[nodiscard]] PacketPool& host_pool(HostId host) {
    return shard(shard_of_host(host)).pool;
  }

  /// Registers a host-adjacent link. These are the only links that can
  /// cross shards, so the barrier lookahead — the minimum over them — is
  /// conservative for every crossing, and it still bounds the epochs of a
  /// one-plane fabric, which has no crossing at all. Throws
  /// std::invalid_argument on latency <= 0 — a zero lookahead would force
  /// zero-width epochs.
  void note_host_link(SimTime latency);
  [[nodiscard]] SimTime lookahead() const { return lookahead_; }

  /// Reserve/grow every shard's event heap (mirrors EventQueue::reserve /
  /// request_capacity; regrowth past the reservation is an audit failure).
  void reserve_events(std::size_t events);
  void request_capacity(std::size_t events);

  /// Cancellation token polled by every shard's dispatch loop and by the
  /// epoch loop itself.
  void set_cancel(const util::CancelToken* cancel);

  /// Wires each shard's event-time monotonicity audit to its private
  /// collecting auditor (see Shard::audit).
  void enable_audit();

  /// Parks `fn` to run on the coordinator at the next barrier, tagged with
  /// shard-local time `at`. Run-phase only; the caller passes its own
  /// shard index (single-writer per deferred vector).
  void defer(std::size_t shard, SimTime at, std::function<void()> fn) {
    shards_[shard]->deferred.push_back(Deferred{at, std::move(fn)});
  }

  /// True while shard event loops are executing (even inline with one
  /// worker): callbacks that would touch shared state must defer().
  [[nodiscard]] bool in_worker_phase() const {
    return in_worker_phase_.load(std::memory_order_relaxed);
  }

  /// Any shard work outstanding — pending events, buffered arrivals,
  /// un-drained mailboxes or deferred callbacks. Keeps the telemetry
  /// driver alive while the control queue alone looks drained.
  [[nodiscard]] bool busy() const;

  [[nodiscard]] std::uint64_t dispatched() const;
  [[nodiscard]] std::uint64_t boundary_sent() const;
  [[nodiscard]] std::uint64_t boundary_delivered() const;

  /// Runs shards + control queue to global drain (or cancellation).
  void run(EventQueue& control) { run_loop(control, EventQueue::kNever); }
  /// Runs to `deadline` inclusive, matching EventQueue::run_until's clock
  /// semantics on both the control queue and every shard.
  void run_until(EventQueue& control, SimTime deadline) {
    run_loop(control, deadline);
  }

  /// Merges every shard's collected violations into `into` (which may be
  /// fail-fast; first merged violation then throws at the merge site).
  void collect_audit(util::Audit& into);
  /// Boundary conservation + per-shard heap reservation sweep.
  void audit_check(util::Audit& audit) const;

 private:
  struct alignas(64) WorkerSync {
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<std::uint64_t> done{0};
    std::exception_ptr error;
    std::thread thread;
  };

  static constexpr int kSpinLimit = 2048;

  [[nodiscard]] static SimTime sat_add(SimTime a, SimTime b) {
    return a > EventQueue::kNever - b ? EventQueue::kNever : a + b;
  }

  void run_loop(EventQueue& control, SimTime deadline);
  /// One barrier epoch: every shard runs events strictly before `end`.
  void run_epoch(SimTime end);
  /// Shards `w, w+W, w+2W, ...` — the slice thread `w` drives.
  void run_slice(std::size_t w, SimTime end);
  /// Coordinator phase: mailboxes -> arrival buffers (dst-major, src
  /// order, FIFO within), then deferred callbacks in (at, shard, emit)
  /// order.
  void integrate();
  void start_workers();
  void worker_main(std::size_t w, WorkerSync* sync);

  std::vector<std::unique_ptr<Shard>> shards_;
  int workers_;
  SimTime lookahead_ = EventQueue::kNever;
  const util::CancelToken* cancel_ = nullptr;
  bool audit_enabled_ = false;

  std::atomic<bool> in_worker_phase_{false};
  std::atomic<bool> quit_{false};
  /// Barrier time of the epoch being published; written before the
  /// release-store on each worker's `epoch`, read after its acquire-load.
  SimTime epoch_end_ = 0;
  std::uint64_t epoch_seq_ = 0;
  bool workers_started_ = false;
  std::vector<std::unique_ptr<WorkerSync>> sync_;  // workers 1..W-1
  std::vector<Deferred> drain_scratch_;
};

}  // namespace pnet::sim
