#include "sim/shard.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>

namespace pnet::sim {

namespace {

/// Returns `value` once it no longer holds `old`. Spins first (epochs
/// often follow each other within microseconds), then yields for up to
/// kYieldFor, then blocks in std::atomic::wait. On an idle host a yield
/// returns at once and waking a blocked thread costs tens of microseconds,
/// so short waits never block; on a busy host each yield hands the core
/// to another thread, the budget runs out within a yield or two, and the
/// waiter sleeps instead of taking its share of the cores from the
/// threads it waits for.
std::uint64_t wait_for_change(const std::atomic<std::uint64_t>& value,
                              std::uint64_t old) {
  constexpr int kSpins = 2048;
  constexpr auto kYieldFor = std::chrono::microseconds(500);
  for (int i = 0; i < kSpins; ++i) {
    const std::uint64_t v = value.load(std::memory_order_acquire);
    if (v != old) return v;
  }
  const auto until = std::chrono::steady_clock::now() + kYieldFor;
  do {
    std::this_thread::yield();
    const std::uint64_t v = value.load(std::memory_order_acquire);
    if (v != old) return v;
  } while (std::chrono::steady_clock::now() < until);
  for (;;) {
    value.wait(old, std::memory_order_acquire);
    const std::uint64_t v = value.load(std::memory_order_acquire);
    if (v != old) return v;
  }
}

}  // namespace

ShardSet::ShardSet(int num_planes, int sim_threads)
    : workers_(std::min(std::max(sim_threads, 1), std::max(num_planes, 1))) {
  const auto n = static_cast<std::size_t>(std::max(num_planes, 1));
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->out.resize(n);
  }
}

ShardSet::~ShardSet() {
  // Workers only wait between epochs (run_epoch joins every done ack
  // before returning), so at this point they are all idle: spinning, or
  // blocked until their epoch changes. Moving it to kQuit wakes them; a
  // bare notify could be lost before a worker blocks.
  for (auto& w : sync_) {
    w->epoch.store(kQuit, std::memory_order_release);
    w->epoch.notify_one();
  }
  for (auto& w : sync_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void ShardSet::note_host_link(SimTime latency) {
  if (latency <= 0) {
    throw std::invalid_argument(
        "sharded simulation requires positive latency on host-adjacent "
        "links; got " +
        std::to_string(latency) + " ps");
  }
  lookahead_ = std::min(lookahead_, latency);
}

void ShardSet::reserve_events(std::size_t events) {
  for (auto& s : shards_) s->events.reserve(events);
}

void ShardSet::request_capacity(std::size_t events) {
  for (auto& s : shards_) s->events.request_capacity(events);
}

void ShardSet::set_cancel(const util::CancelToken* cancel) {
  cancel_ = cancel;
  for (auto& s : shards_) s->events.set_cancel(cancel);
}

void ShardSet::enable_audit() {
  audit_enabled_ = true;
  for (auto& s : shards_) s->events.set_audit(&s->audit);
}

bool ShardSet::busy() const {
  for (const auto& s : shards_) {
    if (s->events.pending() > 0 || s->arrivals.pending() > 0 ||
        !s->deferred.empty()) {
      return true;
    }
    for (const auto& box : s->out) {
      if (!box.empty()) return true;
    }
  }
  return false;
}

std::uint64_t ShardSet::dispatched() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->events.dispatched();
  return total;
}

std::uint64_t ShardSet::boundary_sent() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->boundary_sent;
  return total;
}

std::uint64_t ShardSet::boundary_delivered() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->arrivals.delivered();
  return total;
}

void ShardSet::run_loop(EventQueue& control, SimTime deadline) {
  start_workers();
  for (;;) {
    if (cancel_ != nullptr && cancel_->cancelled()) break;
    const SimTime t_ctl = control.next_time();
    SimTime t_next = EventQueue::kNever;
    for (const auto& s : shards_) {
      t_next = std::min(t_next, s->events.next_time());
    }
    const SimTime first = std::min(t_ctl, t_next);
    if (first == EventQueue::kNever || first > deadline) break;
    if (t_ctl <= t_next) {
      // Control-first tie rule: flow starts, faults, health probes and
      // telemetry samples at time t happen before shard events at t, at
      // every worker count.
      control.run_batch();
      continue;
    }
    // Conservative window: no shard may run past the earliest pending
    // control event, and no shard may run further than lookahead past the
    // globally earliest shard event — any message that event emits lands
    // at t_next + crossing latency >= epoch_end, so it cannot be missed.
    const SimTime epoch_end =
        std::min({sat_add(t_next, lookahead_), t_ctl, sat_add(deadline, 1)});
    run_epoch(epoch_end);
    // Bring every clock — the idle shards' and the control queue's — up to
    // the latest event any shard dispatched before integration, so
    // anything the deferred callbacks read or schedule "now" sees one
    // common time: no earlier than any shard's progress (a message sent
    // from it cannot land in a shard's past) and no later than the run's
    // last event. No pending event precedes it (all are >= epoch_end).
    SimTime reached = control.now();
    for (const auto& s : shards_) reached = std::max(reached, s->events.now());
    for (auto& s : shards_) s->events.advance_to(reached);
    control.advance_to(reached);
    integrate();
  }
  // Leave every clock at the same stopping point run_until/run would:
  // the deadline, or — at natural drain — the last event dispatched.
  SimTime stop = deadline;
  if (deadline == EventQueue::kNever) {
    stop = control.now();
    for (const auto& s : shards_) stop = std::max(stop, s->events.now());
  }
  for (auto& s : shards_) s->events.advance_to(stop);
  control.advance_to(stop);
}

void ShardSet::run_epoch(SimTime end) {
  in_worker_phase_.store(true, std::memory_order_relaxed);
  if (sync_.empty()) {
    for (auto& s : shards_) s->events.run_before(end);
    in_worker_phase_.store(false, std::memory_order_relaxed);
    return;
  }
  epoch_end_ = end;
  const std::uint64_t k = ++epoch_seq_;
  for (auto& w : sync_) {
    w->epoch.store(k, std::memory_order_release);
    w->epoch.notify_one();
  }
  run_slice(0, end);
  // `done` holds the previous epoch until the worker acks this one.
  for (auto& w : sync_) wait_for_change(w->done, k - 1);
  in_worker_phase_.store(false, std::memory_order_relaxed);
  for (auto& w : sync_) {
    if (w->error != nullptr) {
      std::exception_ptr error = w->error;
      w->error = nullptr;
      std::rethrow_exception(error);
    }
  }
}

void ShardSet::run_slice(std::size_t w, SimTime end) {
  const auto stride = static_cast<std::size_t>(workers_);
  for (std::size_t i = w; i < shards_.size(); i += stride) {
    shards_[i]->events.run_before(end);
  }
}

void ShardSet::integrate() {
  // Mailboxes drain in fixed (dst, src, FIFO) order: with per-shard event
  // streams already deterministic, this makes the merged arrival order —
  // and every seq number the schedules below consume — a pure function of
  // the topology, independent of the worker count.
  for (std::size_t dst = 0; dst < shards_.size(); ++dst) {
    Shard& d = *shards_[dst];
    for (std::size_t src = 0; src < shards_.size(); ++src) {
      auto& box = shards_[src]->out[dst];
      for (const BoundaryMsg& msg : box) {
        d.arrivals.insert(d.pool.clone(msg.data));
        ++d.boundary_integrated;
      }
      box.clear();
    }
    d.arrivals.arm();
  }
  // Deferred completion records and repaths, globally time-ordered:
  // every deferred `at` is below this barrier and all future events are at
  // or above it, so a stable sort of the shard-major concatenation yields
  // the (at, shard, emit order) total order across the whole run.
  drain_scratch_.clear();
  for (auto& s : shards_) {
    for (auto& d : s->deferred) drain_scratch_.push_back(std::move(d));
    s->deferred.clear();
  }
  if (!drain_scratch_.empty()) {
    std::stable_sort(
        drain_scratch_.begin(), drain_scratch_.end(),
        [](const Deferred& a, const Deferred& b) { return a.at < b.at; });
    for (const Deferred& d : drain_scratch_) d.fn();
    drain_scratch_.clear();
  }
  if (barrier_hook_) barrier_hook_();
}

void ShardSet::start_workers() {
  if (workers_started_ || workers_ <= 1) return;
  workers_started_ = true;
  sync_.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int w = 1; w < workers_; ++w) {
    sync_.push_back(std::make_unique<WorkerSync>());
    WorkerSync* s = sync_.back().get();
    s->thread = std::thread(
        [this, w, s] { worker_main(static_cast<std::size_t>(w), s); });
  }
}

void ShardSet::worker_main(std::size_t w, WorkerSync* sync) {
  std::uint64_t last = 0;
  for (;;) {
    const std::uint64_t k = wait_for_change(sync->epoch, last);
    if (k == kQuit) return;
    try {
      // epoch_end_ was written before the release-store on `epoch`; the
      // acquire-load above makes it visible here.
      run_slice(w, epoch_end_);
    } catch (...) {
      sync->error = std::current_exception();
    }
    sync->done.store(k, std::memory_order_release);
    sync->done.notify_one();
    last = k;
  }
}

void ShardSet::collect_audit(util::Audit& into) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    for (const std::string& v : shards_[i]->audit.violations()) {
      into.fail("shard " + std::to_string(i) + ": " + v);
    }
  }
}

void ShardSet::audit_check(util::Audit& audit) const {
  audit.note_check();
  std::uint64_t sent = 0;
  std::uint64_t integrated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t in_mailboxes = 0;
  std::uint64_t awaiting = 0;
  for (const auto& s : shards_) {
    sent += s->boundary_sent;
    integrated += s->boundary_integrated;
    delivered += s->arrivals.delivered();
    awaiting += s->arrivals.pending();
    for (const auto& box : s->out) in_mailboxes += box.size();
  }
  // Packet conservation across shard boundaries: every snapshot sent is
  // either still in a mailbox or was cloned exactly once, and every clone
  // is either delivered or still buffered for a future due time.
  if (sent != integrated + in_mailboxes) {
    audit.fail("boundary conservation: sent " + std::to_string(sent) +
               " != integrated " + std::to_string(integrated) +
               " + in mailboxes " + std::to_string(in_mailboxes));
  }
  if (integrated != delivered + awaiting) {
    audit.fail("boundary conservation: integrated " +
               std::to_string(integrated) + " != delivered " +
               std::to_string(delivered) + " + awaiting " +
               std::to_string(awaiting));
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const EventQueue& ev = shards_[i]->events;
    if (ev.reserved() && ev.regrowths() > 0) {
      audit.fail("shard " + std::to_string(i) + " event queue regrew " +
                 std::to_string(ev.regrowths()) +
                 " times past its reservation (capacity now " +
                 std::to_string(ev.capacity()) + " entries)");
    }
  }
}

}  // namespace pnet::sim
