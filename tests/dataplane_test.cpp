// Tests for the data-plane memory layer (DESIGN.md §5h): slab packet pool
// recycling and growth, intrusive FIFO ordering under priority service,
// batched event dispatch against a stable sort and, operation for
// operation, against the 4-ary heap the radix queue replaced, and the
// steady-state no-regrowth guarantee the harness audits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/packet.hpp"
#include "sim/pipe.hpp"
#include "sim/queue.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pnet::sim {
namespace {

// ------------------------------------------------------------- slab pool

TEST(PacketPoolTest, RecycledPacketKeepsSlotIdentityAndResetsFields) {
  PacketPool pool;
  Packet* p = pool.allocate();
  const PacketRef ref = p->ref();
  ASSERT_FALSE(ref.null());

  // Dirty every mutable field of the first lifetime.
  OwnedRoute route({});
  p->next = p;
  p->route = &route;
  p->seq = 0xDEAD;
  p->ack_seq = 0xBEEF;
  p->ts_echo = 123;
  p->due = 456;
  p->flow = FlowId{7};
  p->size_bytes = 1500;
  p->next_hop = 3;
  p->subflow = 2;
  p->is_ack = true;
  p->retransmitted = true;
  p->ecn_ce = true;
  p->ecn_echo = true;
  p->trimmed = true;
  p->is_nack = true;

  pool.free(p);
  Packet* q = pool.allocate();

  // LIFO free list: the same slab slot comes back, same address and ref.
  EXPECT_EQ(q, p);
  EXPECT_EQ(q->ref(), ref);
  EXPECT_EQ(&pool.get(ref), q);

  // ...but as a fully reset packet (compare against a fresh default).
  const Packet fresh;
  EXPECT_EQ(q->next, fresh.next);
  EXPECT_EQ(q->route, fresh.route);
  EXPECT_EQ(q->seq, fresh.seq);
  EXPECT_EQ(q->ack_seq, fresh.ack_seq);
  EXPECT_EQ(q->ts_echo, fresh.ts_echo);
  EXPECT_EQ(q->due, fresh.due);
  EXPECT_EQ(q->flow.v, fresh.flow.v);
  EXPECT_EQ(q->size_bytes, fresh.size_bytes);
  EXPECT_EQ(q->next_hop, fresh.next_hop);
  EXPECT_EQ(q->subflow, fresh.subflow);
  EXPECT_EQ(q->is_ack, fresh.is_ack);
  EXPECT_EQ(q->retransmitted, fresh.retransmitted);
  EXPECT_EQ(q->ecn_ce, fresh.ecn_ce);
  EXPECT_EQ(q->ecn_echo, fresh.ecn_echo);
  EXPECT_EQ(q->trimmed, fresh.trimmed);
  EXPECT_EQ(q->is_nack, fresh.is_nack);
}

TEST(PacketPoolTest, CountersTrackLiveAndAllocatedAcrossSlabGrowth) {
  PacketPool pool;
  EXPECT_EQ(pool.allocated(), 0u);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.slabs(), 0u);

  // Allocate past one slab so a second is carved; addresses must be stable
  // (slab growth never moves existing packets) and refs resolvable.
  constexpr std::size_t kCount = PacketPool::kSlabPackets + 100;
  std::vector<Packet*> live;
  live.reserve(kCount);
  for (std::size_t i = 0; i < kCount; ++i) live.push_back(pool.allocate());

  EXPECT_EQ(pool.allocated(), kCount);
  EXPECT_EQ(pool.live(), kCount);
  EXPECT_EQ(pool.slabs(), 2u);
  EXPECT_EQ(pool.slab_bytes(), 2 * PacketPool::kSlabPackets * sizeof(Packet));
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(&pool.get(live[i]->ref()), live[i]);
  }

  // Freeing shrinks live() but never allocated() (slots stay carved).
  for (std::size_t i = 0; i < 100; ++i) pool.free(live[i]);
  EXPECT_EQ(pool.live(), kCount - 100);
  EXPECT_EQ(pool.allocated(), kCount);

  // Recycling reuses the free list without carving new slabs.
  for (std::size_t i = 0; i < 100; ++i) pool.allocate();
  EXPECT_EQ(pool.live(), kCount);
  EXPECT_EQ(pool.allocated(), kCount);
  EXPECT_EQ(pool.slabs(), 2u);
}

// ------------------------------------------- intrusive FIFOs in the queue

/// Terminal sink recording delivery order by packet seq.
class SeqRecorder : public PacketSink {
 public:
  explicit SeqRecorder(PacketPool& pool) : pool_(pool) {}
  void receive(Packet& packet) override {
    seqs.push_back(packet.seq);
    pool_.free(&packet);
  }
  std::vector<std::uint64_t> seqs;

 private:
  PacketPool& pool_;
};

TEST(QueueIntrusiveFifoTest, PriorityAcksOvertakeDataButStayFifoWithinClass) {
  EventQueue events;
  PacketPool pool;
  SeqRecorder sink(pool);
  // priority_acks on; generous buffer so nothing drops.
  Queue queue(events, pool, /*rate_bps=*/1e9, /*buffer_bytes=*/1 << 20,
              /*ecn_threshold_bytes=*/0, /*priority_acks=*/true);
  OwnedRoute route({&queue, &sink});

  // Interleave data (even seq) and ACKs (odd seq) while the queue is busy:
  // data 0 enters service first (committed, no preemption), then every
  // queued ACK must overtake every queued data packet, each class in FIFO
  // order.
  auto inject = [&](std::uint64_t seq, bool ack) {
    Packet* p = pool.allocate();
    p->seq = seq;
    p->is_ack = ack;
    p->size_bytes = ack ? 64 : 1500;
    p->route = &route;
    p->forward();
  };
  inject(0, false);
  inject(2, false);
  inject(1, true);
  inject(4, false);
  inject(3, true);
  inject(5, true);
  events.run();

  const std::vector<std::uint64_t> want = {0, 1, 3, 5, 2, 4};
  EXPECT_EQ(sink.seqs, want);
  EXPECT_EQ(pool.live(), 0u);
}

// -------------------------------------------------- batched dispatch fuzz

/// Reference model: the dispatch order of (when, seq) entries must equal a
/// stable sort by (when, then scheduling order), regardless of heap arity
/// or timestamp batching.
TEST(EventQueueFuzzTest, BatchedDispatchMatchesStableSortReference) {
  class Recorder : public EventSource {
   public:
    Recorder(std::vector<int>& log, int id) : log_(log), id_(id) {}
    void do_next_event() override { log_.push_back(id_); }

   private:
    std::vector<int>& log_;
    int id_;
  };

  Rng rng(0xF0F0'5EED'1234ULL);
  for (int round = 0; round < 50; ++round) {
    EventQueue events;
    std::vector<int> log;
    std::vector<Recorder> sources;
    sources.reserve(400);
    // Few distinct timestamps => long same-instant batches, the case the
    // drain loop in run_batch() handles.
    std::vector<std::pair<SimTime, int>> scheduled;
    const int n = 50 + static_cast<int>(rng.next_u64() % 350);
    for (int i = 0; i < n; ++i) {
      const auto when = static_cast<SimTime>(rng.next_u64() % 8);
      sources.emplace_back(log, i);
      scheduled.emplace_back(when, i);
    }
    for (int i = 0; i < n; ++i) {
      events.schedule_at(scheduled[i].first, &sources[i]);
    }
    events.run();

    std::vector<std::pair<SimTime, int>> want = scheduled;
    std::stable_sort(want.begin(), want.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    ASSERT_EQ(log.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(log[i], want[i].second) << "round " << round << " pos " << i;
    }
  }
}

TEST(EventQueueFuzzTest, SameInstantReschedulesDispatchAfterPendingPeers) {
  // A handler scheduling at the batch timestamp gets a larger seq, so it
  // runs after everything already pending at that instant — the property
  // that makes batched dispatch byte-identical to one-at-a-time.
  class Chain : public EventSource {
   public:
    Chain(EventQueue& events, std::vector<int>& log, int id, int hops)
        : events_(events), log_(log), id_(id), hops_(hops) {}
    void do_next_event() override {
      log_.push_back(id_);
      if (hops_-- > 0) events_.schedule_in(0, this);
    }

   private:
    EventQueue& events_;
    std::vector<int>& log_;
    int id_;
    int hops_;
  };

  EventQueue events;
  std::vector<int> log;
  Chain a(events, log, 1, 2);
  Chain b(events, log, 2, 2);
  events.schedule_at(5, &a);
  events.schedule_at(5, &b);
  events.run();
  // Round-robin, not run-to-completion: each reschedule queues behind the
  // other chain's pending entry.
  const std::vector<int> want = {1, 2, 1, 2, 1, 2};
  EXPECT_EQ(log, want);
  EXPECT_EQ(events.dispatched(), 6u);
}

// ------------------------------------------------- independent reference
//
// The event queue as it stood before the radix queue: a 4-ary min-heap of
// (when, seq, source) entries in a flat vector, sifting a hole. Kept
// verbatim but for the name and the audit hook. EventQueue must reproduce
// its dispatch sequence, clock, peeks, counts and regrowths step for step.
class ReferenceHeap {
 public:
  static constexpr std::uint64_t kCancelStride = 1024;
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  [[nodiscard]] SimTime now() const { return now_; }

  [[nodiscard]] SimTime next_time() const {
    return heap_.empty() ? kNever : heap_.front().when;
  }

  [[nodiscard]] SimTime horizon(SimTime deadline) const {
    return heap_.empty() ? deadline : std::min(deadline, heap_.front().when);
  }

  void set_cancel(const util::CancelToken* cancel) { cancel_ = cancel; }

  void reserve(std::size_t events) {
    if (events > heap_.capacity()) heap_.reserve(events);
    reserved_ = true;
  }

  void request_capacity(std::size_t events) {
    if (events <= heap_.capacity()) return;
    heap_.reserve(std::max(events, heap_.capacity() * 2));
    reserved_ = true;
  }

  [[nodiscard]] bool reserved() const { return reserved_; }
  [[nodiscard]] std::size_t capacity() const { return heap_.capacity(); }
  [[nodiscard]] std::uint64_t regrowths() const { return regrowths_; }

  void schedule_at(SimTime when, EventSource* source) {
    if (reserved_ && heap_.size() == heap_.capacity()) ++regrowths_;
    heap_.push_back(Entry{when < now_ ? now_ : when, next_seq_++, source});
    sift_up(heap_.size() - 1);
  }
  void schedule_in(SimTime delay, EventSource* source) {
    schedule_at(now_ + delay, source);
  }

  void schedule_aux_at(SimTime when, EventSource* source) {
    ++aux_pending_;
    schedule_at(when, source);
  }
  void aux_fired() {
    if (aux_pending_ > 0) --aux_pending_;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::size_t real_pending() const {
    return heap_.size() > aux_pending_ ? heap_.size() - aux_pending_ : 0;
  }
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }

  bool run_batch() {
    if (heap_.empty()) return false;
    const SimTime t = heap_.front().when;
    now_ = t;
    do {
      EventSource* const source = heap_.front().source;
      pop();
      ++dispatched_;
      source->do_next_event();
    } while (!heap_.empty() && heap_.front().when == t);
    return true;
  }

  void run_until(SimTime deadline) {
    while (!heap_.empty() && heap_.front().when <= deadline) {
      if (cancel_poll_due() && cancel_->cancelled()) break;
      run_batch();
    }
    const SimTime stop = horizon(deadline);
    if (now_ < stop) now_ = stop;
  }

  void run_before(SimTime end) {
    while (!heap_.empty() && heap_.front().when < end) {
      if (cancel_poll_due() && cancel_->cancelled()) break;
      run_batch();
    }
  }

  void advance_to(SimTime t) {
    const SimTime stop = std::min(t, next_time());
    if (now_ < stop) now_ = stop;
  }

  void run() {
    while (!heap_.empty()) {
      if (cancel_poll_due() && cancel_->cancelled()) break;
      run_batch();
    }
  }

 private:
  [[nodiscard]] bool cancel_poll_due() {
    if (cancel_ == nullptr || dispatched_ < next_cancel_poll_) return false;
    next_cancel_poll_ = dispatched_ + kCancelStride;
    return true;
  }

  struct Entry {
    SimTime when;
    std::uint64_t seq;
    EventSource* source;

    [[nodiscard]] bool before(const Entry& other) const {
      return when != other.when ? when < other.when : seq < other.seq;
    }
  };

  void pop() {
    const Entry moved = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t i = 0;
    while (true) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t smallest = first;
      const std::size_t end = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (heap_[c].before(heap_[smallest])) smallest = c;
      }
      if (!heap_[smallest].before(moved)) break;
      heap_[i] = heap_[smallest];
      i = smallest;
    }
    heap_[i] = moved;
  }

  void sift_up(std::size_t i) {
    const Entry moved = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!moved.before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = moved;
  }

  std::vector<Entry> heap_;
  std::size_t aux_pending_ = 0;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t next_cancel_poll_ = 0;
  bool reserved_ = false;
  std::uint64_t regrowths_ = 0;
  const util::CancelToken* cancel_ = nullptr;
};

/// A delay drawn from the spreads the simulator produces: the same
/// instant, a few picoseconds, microseconds (serialization and
/// propagation), 10 ms (an idle RTO timer), or below zero, which
/// schedule_at clamps to now().
SimTime draw_delay(Rng& rng) {
  switch (rng.next_below(6)) {
    case 0: return 0;
    case 1: return 1 + static_cast<SimTime>(rng.next_below(3));
    case 2:
      return units::kMicrosecond *
             (1 + static_cast<SimTime>(rng.next_below(8)));
    case 3: return 10 * units::kMillisecond;
    case 4: return -1 - static_cast<SimTime>(rng.next_below(1000));
    default:
      return static_cast<SimTime>(rng.next_below(4 * units::kMicrosecond));
  }
}

/// One queue of a differential run, driven through its public API. Its
/// sources log (id, now()) when they fire and, while the reschedule budget
/// lasts, schedule a source again from the twin's own generator — at the
/// same instant or after a draw_delay. Aux sources balance aux_fired() and
/// re-arm only as aux entries. A source can cancel the attached token
/// mid-run.
template <class Q>
class QueueTwin {
 public:
  static constexpr int kSources = 24;
  static constexpr int kAuxSources = 3;

  QueueTwin(std::uint64_t seed, int budget) : rng_(seed), budget_(budget) {
    sources_.reserve(kSources + kAuxSources);
    for (int i = 0; i < kSources + kAuxSources; ++i) {
      sources_.emplace_back(*this, i);
    }
  }
  QueueTwin(const QueueTwin&) = delete;
  QueueTwin& operator=(const QueueTwin&) = delete;

  Q q;
  std::vector<std::pair<int, SimTime>> log;

  EventSource* source(int id) {
    return &sources_[static_cast<std::size_t>(id)];
  }
  EventSource* aux_source(int id) { return source(kSources + id); }

  /// Attaches a fresh token that a source cancels once `fires` more
  /// events have dispatched.
  void arm_cancel(std::size_t fires) {
    token_ = util::CancelToken::armed();
    cancel_at_ = log.size() + fires;
    q.set_cancel(&token_);
  }

 private:
  class Probe : public EventSource {
   public:
    Probe(QueueTwin& twin, int id) : twin_(twin), id_(id) {}
    void do_next_event() override { twin_.fire(id_); }

   private:
    QueueTwin& twin_;
    int id_;
  };

  void fire(int id) {
    const bool aux = id >= kSources;
    if (aux) q.aux_fired();
    log.emplace_back(id, q.now());
    if (log.size() == cancel_at_) token_.cancel();
    if (budget_ <= 0) return;
    const std::uint64_t roll = rng_.next_below(8);
    if (aux) {
      if (roll < 4) {
        --budget_;
        q.schedule_aux_at(q.now() + units::kMicrosecond, source(id));
      }
      return;
    }
    if (roll >= 5) return;
    --budget_;
    EventSource* target =
        roll < 3 ? source(id)
                 : source(static_cast<int>(rng_.next_below(kSources)));
    if (roll == 0) {
      q.schedule_at(q.now(), target);
    } else {
      q.schedule_in(draw_delay(rng_), target);
    }
  }

  std::vector<Probe> sources_;
  Rng rng_;
  int budget_;
  util::CancelToken token_;
  std::size_t cancel_at_ = 0;
};

/// One top-level operation of a stream, applied to both queues alike.
struct QueueOp {
  enum Kind : std::uint8_t {
    kSchedule,
    kScheduleAux,
    kScheduleBelowPeek,
    kRunBatch,
    kRunBefore,
    kRunUntil,
    kAdvanceTo,
    kRun,
    kArmCancel,
    kDetachCancel,
    kRequestCapacity,
    kKinds,
  };
  Kind kind;
  int source;
  SimTime delay;
};

/// Applies `op` to one twin. Times are relative to the queue's own now(),
/// so both queues see the same absolute times while they agree.
template <class Q>
void apply(QueueTwin<Q>& d, const QueueOp& op) {
  Q& q = d.q;
  switch (op.kind) {
    case QueueOp::kSchedule:
      q.schedule_at(q.now() + op.delay, d.source(op.source));
      break;
    case QueueOp::kScheduleAux:
      q.schedule_aux_at(q.now() + op.delay,
                        d.aux_source(op.source % QueueTwin<Q>::kAuxSources));
      break;
    case QueueOp::kScheduleBelowPeek: {
      // What the shard coordinator does between epochs: peek at the
      // earliest pending time, then schedule below it.
      const SimTime next = q.next_time();
      if (next != Q::kNever && next > q.now()) {
        q.schedule_at(q.now() + (next - q.now()) / 2, d.source(op.source));
      }
      break;
    }
    case QueueOp::kRunBatch: q.run_batch(); break;
    case QueueOp::kRunBefore: q.run_before(q.now() + op.delay); break;
    case QueueOp::kRunUntil: q.run_until(q.now() + op.delay); break;
    case QueueOp::kAdvanceTo: q.advance_to(q.now() + op.delay); break;
    case QueueOp::kRun: q.run(); break;
    case QueueOp::kArmCancel:
      d.arm_cancel(static_cast<std::size_t>(op.source));
      break;
    case QueueOp::kDetachCancel: q.set_cancel(nullptr); break;
    case QueueOp::kRequestCapacity:
      q.request_capacity(q.pending() + static_cast<std::size_t>(op.source));
      break;
    case QueueOp::kKinds: break;
  }
}

/// Everything a caller can observe of a queue between operations.
template <class Q>
std::vector<std::int64_t> observe(const Q& q, SimTime probe) {
  return {q.now(),
          q.next_time(),
          q.horizon(q.now() + probe),
          static_cast<std::int64_t>(q.pending()),
          static_cast<std::int64_t>(q.real_pending()),
          q.empty() ? 1 : 0,
          static_cast<std::int64_t>(q.dispatched()),
          static_cast<std::int64_t>(q.regrowths()),
          static_cast<std::int64_t>(q.capacity())};
}

QueueOp draw_op(Rng& rng) {
  QueueOp op{};
  const std::uint64_t roll = rng.next_below(40);
  // Schedules outnumber the run calls, so queues grow to hundreds of
  // entries between drains.
  if (roll < 18) {
    op.kind = QueueOp::kSchedule;
  } else {
    op.kind = static_cast<QueueOp::Kind>(
        1 + (roll - 18) % (QueueOp::kKinds - 1));
  }
  op.source =
      static_cast<int>(rng.next_below(QueueTwin<EventQueue>::kSources));
  op.delay = draw_delay(rng);
  if (op.kind == QueueOp::kArmCancel) {
    op.source = static_cast<int>(rng.next_below(2000));
  }
  if (op.kind == QueueOp::kRunBefore || op.kind == QueueOp::kRunUntil ||
      op.kind == QueueOp::kAdvanceTo) {
    // Mostly short horizons, so a run call stops with work pending.
    op.delay = static_cast<SimTime>(rng.next_below(
        rng.next_below(4) == 0 ? 20 * units::kMillisecond
                               : 3 * units::kMicrosecond));
  }
  return op;
}

TEST(HeapReference, RandomStreamsDispatchIdentically) {
  constexpr int kStreams = 2000;
  Rng streams(0x4EA9'7EF0'0D15'9A7CULL);
  std::uint64_t total_dispatched = 0;
  for (int stream = 0; stream < kStreams; ++stream) {
    const std::uint64_t handler_seed = streams.next_u64();
    Rng ops(streams.next_u64());
    // Every eighth stream runs long enough for several cancel polls.
    const int budget = stream % 8 == 0
                           ? 4000
                           : 50 + static_cast<int>(ops.next_below(400));
    const int steps = 100 + static_cast<int>(ops.next_below(500));
    QueueTwin<ReferenceHeap> ref(handler_seed, budget);
    QueueTwin<EventQueue> radix(handler_seed, budget);
    if (ops.next_below(2) == 0) {
      const auto n = static_cast<std::size_t>(ops.next_below(64));
      ref.q.reserve(n);
      radix.q.reserve(n);
    }
    for (int step = 0; step < steps; ++step) {
      const QueueOp op = draw_op(ops);
      apply(ref, op);
      apply(radix, op);
      const auto probe =
          static_cast<SimTime>(ops.next_below(units::kMillisecond));
      const auto where = [&] {
        return "stream " + std::to_string(stream) + " step " +
               std::to_string(step) + " op " + std::to_string(op.kind);
      };
      ASSERT_EQ(radix.log, ref.log) << where();
      ASSERT_EQ(observe(radix.q, probe), observe(ref.q, probe)) << where();
    }
    ref.q.set_cancel(nullptr);
    radix.q.set_cancel(nullptr);
    ref.q.run();
    radix.q.run();
    ASSERT_EQ(radix.log, ref.log) << "stream " << stream << " drain";
    ASSERT_EQ(observe(radix.q, 0), observe(ref.q, 0))
        << "stream " << stream << " drain";
    total_dispatched += radix.q.dispatched();
  }
  // The streams exercise the queue, not just its empty paths.
  EXPECT_GT(total_dispatched, std::uint64_t{kStreams} * 200);
}

// --------------------------------------------------- steady-state growth

TEST(EventQueueReserveTest, NoRegrowthWhenReservationCoversLoad) {
  class SelfScheduler : public EventSource {
   public:
    explicit SelfScheduler(EventQueue& events) : events_(events) {}
    void do_next_event() override {
      if (left_-- > 0) events_.schedule_in(3, this);
    }
    int left_ = 1000;

   private:
    EventQueue& events_;
  };

  EventQueue events;
  events.reserve(64);
  ASSERT_TRUE(events.reserved());
  std::vector<SelfScheduler> sources(32, SelfScheduler(events));
  for (auto& s : sources) events.schedule_in(1, &s);
  events.run();
  // 32 concurrent entries never exceed the 64-slot reservation: the heap
  // must not have reallocated after reserve().
  EXPECT_EQ(events.regrowths(), 0u);
  EXPECT_GE(events.capacity(), 64u);
}

TEST(EventQueueReserveTest, RegrowthPastReservationIsCounted) {
  class Nop : public EventSource {
   public:
    void do_next_event() override {}
  };
  EventQueue events;
  events.reserve(4);
  Nop nop;
  for (int i = 0; i < 100; ++i) events.schedule_in(i, &nop);
  EXPECT_GT(events.regrowths(), 0u);
  events.run();
}

// Pool + queue + pipe end to end: after warm-up, recirculating the same
// packets must not carve new slabs (the zero-allocation steady state).
TEST(DataPlaneSteadyStateTest, RecirculationCarvesNoNewSlabs) {
  EventQueue events;
  PacketPool pool;
  SeqRecorder sink(pool);
  Queue queue(events, pool, 10e9, 1 << 20);
  Pipe pipe(events, units::kMicrosecond);
  OwnedRoute route({&queue, &pipe, &sink});

  auto burst = [&](int count) {
    for (int i = 0; i < count; ++i) {
      Packet* p = pool.allocate();
      p->size_bytes = 1500;
      p->route = &route;
      p->forward();
    }
    events.run();
  };

  burst(256);  // warm-up carves the working set
  const std::size_t allocated = pool.allocated();
  const std::size_t slabs = pool.slabs();
  for (int round = 0; round < 20; ++round) burst(256);
  EXPECT_EQ(pool.allocated(), allocated);
  EXPECT_EQ(pool.slabs(), slabs);
  EXPECT_EQ(pool.live(), 0u);
}

}  // namespace
}  // namespace pnet::sim
