// Tests for the plane-sharded simulation core (DESIGN.md §5i): the
// EventQueue horizon/run_before primitives the epoch loop is built on, the
// ArrivalQueue / handoff merge order, the headline contract — a harness
// produces byte-identical flow records and event counts at every worker
// count, with and without fault injection, with boundary packet
// conservation holding under audit — agreement with a reference built
// by hand from Queue, Pipe, TcpSrc and TcpSink on one EventQueue, and the
// flow factory's slot lifecycle across shards (retirement once no packet
// is in flight, reuse, stale wake-ups, the misdelivery audit).
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/harness.hpp"
#include "routing/shortest.hpp"
#include "sim/event_queue.hpp"
#include "sim/faults.hpp"
#include "sim/packet.hpp"
#include "sim/pipe.hpp"
#include "sim/queue.hpp"
#include "sim/shard.hpp"
#include "sim/tcp.hpp"
#include "util/audit.hpp"
#include "util/rng.hpp"
#include "workload/apps.hpp"
#include "workload/patterns.hpp"

namespace pnet::sim {
namespace {

using namespace pnet::units;

class Counter : public EventSource {
 public:
  void do_next_event() override { ++fired; }
  int fired = 0;
};

// ---------------------------------------------------- queue primitives

TEST(ShardPrimitives, HorizonOfEmptyQueueIsDeadline) {
  // Regression (the "small fix" of the sharding PR): an empty shard must
  // report horizon == deadline, not 0/kNever, or the barrier computation
  // stalls the non-empty shards.
  EventQueue events;
  EXPECT_EQ(events.horizon(1234), 1234);
  EXPECT_EQ(events.next_time(), EventQueue::kNever);
  Counter c;
  events.schedule_at(50, &c);
  EXPECT_EQ(events.horizon(1234), 50);
  EXPECT_EQ(events.horizon(20), 20);
  EXPECT_EQ(events.next_time(), 50);
}

TEST(ShardPrimitives, RunBeforeIsExclusiveOfTheBarrier) {
  EventQueue events;
  Counter c;
  events.schedule_at(10, &c);
  events.schedule_at(20, &c);
  events.run_before(20);  // [now, 20): the event AT 20 must stay pending
  EXPECT_EQ(c.fired, 1);
  EXPECT_EQ(events.next_time(), 20);
  events.run_before(21);
  EXPECT_EQ(c.fired, 2);
}

TEST(ShardPrimitives, AdvanceToIsClampedByPendingWork) {
  EventQueue events;
  Counter c;
  events.advance_to(100);  // empty: free to advance
  EXPECT_EQ(events.now(), 100);
  events.schedule_at(150, &c);
  events.advance_to(500);  // clamped: must not skip past the pending event
  EXPECT_EQ(events.now(), 150);
  events.advance_to(120);  // never moves backwards
  EXPECT_EQ(events.now(), 150);
}

// ------------------------------------------------- arrival-queue merge

// Fuzz the handoff merge order: packets inserted in adversarial batch
// orders must drain in (due, insertion) order — the stable total order the
// determinism argument needs. Deterministic LCG, no ambient randomness.
TEST(ShardArrivals, FuzzedInsertsDrainInStableDueOrder) {
  PacketPool pool;
  std::uint64_t lcg = 12345;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  for (int round = 0; round < 50; ++round) {
    ArrivalQueue queue;
    std::vector<Packet*> inserted;
    // Several batches with interleaved partial drains, mimicking epochs.
    std::uint32_t insert_index = 0;
    SimTime drained_up_to = -1;
    std::vector<std::pair<SimTime, std::uint32_t>> drained;
    for (int batch = 0; batch < 8; ++batch) {
      const int n = 1 + static_cast<int>(next() % 24);
      for (int i = 0; i < n; ++i) {
        Packet* p = pool.allocate();
        // Few distinct dues => many ties, the interesting case; dues only
        // at/after the watermark already drained (conservative handoff).
        p->due = drained_up_to + 1 + static_cast<SimTime>(next() % 8);
        p->size_bytes = insert_index++;  // records insertion order
        queue.insert(p);
        inserted.push_back(p);
      }
      // Drain a prefix, as an epoch barrier would.
      const SimTime barrier = drained_up_to + 1 +
                              static_cast<SimTime>(next() % 6);
      while (!queue.empty() && queue.next_due() <= barrier) {
        Packet* p = queue.pop_front();
        drained.emplace_back(p->due, p->size_bytes);
      }
      drained_up_to = barrier;
    }
    while (!queue.empty()) {
      Packet* p = queue.pop_front();
      drained.emplace_back(p->due, p->size_bytes);
    }
    ASSERT_EQ(drained.size(), inserted.size());
    for (std::size_t i = 1; i < drained.size(); ++i) {
      // Total order: strictly increasing (due, insertion-index) pairs —
      // sorted by due, FIFO among ties.
      EXPECT_LT(std::make_pair(drained[i - 1].first, drained[i - 1].second),
                std::make_pair(drained[i].first, drained[i].second))
          << "round " << round << " position " << i;
    }
    for (Packet* p : inserted) pool.free(p);
  }
}

TEST(ShardArrivals, CloneRehomesAcrossPoolsKeepingDestinationHandle) {
  PacketPool a;
  PacketPool b;
  Packet* src = a.allocate();
  src->seq = 77;
  src->due = 1234;
  src->size_bytes = 1500;
  src->is_ack = true;
  Packet* dst = b.allocate();
  const PacketRef dst_ref = dst->ref();
  b.free(dst);
  Packet* copy = b.clone(*src);
  EXPECT_EQ(copy->seq, 77u);
  EXPECT_EQ(copy->due, 1234);
  EXPECT_EQ(copy->size_bytes, 1500u);
  EXPECT_TRUE(copy->is_ack);
  EXPECT_EQ(copy->next, nullptr);
  // The clone owns a slot in the DESTINATION pool (here the recycled one).
  EXPECT_EQ(copy->ref(), dst_ref);
  EXPECT_EQ(&b.get(copy->ref()), copy);
}

TEST(ShardSetTest, RejectsZeroLatencyCrossing) {
  ShardSet shards(4, 2);
  EXPECT_EQ(shards.size(), 4u);
  EXPECT_EQ(shards.workers(), 2);
  EXPECT_THROW(shards.note_host_link(0), std::invalid_argument);
  shards.note_host_link(kMicrosecond);
  shards.note_host_link(kMicrosecond / 2);
  EXPECT_EQ(shards.lookahead(), kMicrosecond / 2);
}

TEST(ShardSetTest, WorkerPoolClampsToPlaneCount) {
  ShardSet shards(2, 8);
  EXPECT_EQ(shards.size(), 2u);   // shard layout pinned to the planes
  EXPECT_EQ(shards.workers(), 2);  // pool clamped, layout unchanged
}

// ------------------------------------------------ end-to-end identity

struct RunOutput {
  std::vector<std::tuple<int, int, std::uint64_t, SimTime, SimTime, int,
                         int, int>>
      records;
  std::uint64_t dispatched = 0;
  std::uint64_t delivered_bytes = 0;
};

RunOutput run_workload(int sim_threads, bool with_faults) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  spec.hosts = 16;
  spec.parallelism = 4;
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kKspMultipath;
  policy.k = 4;
  core::SimHarness harness(
      {.spec = spec, .policy = policy, .sim_threads = sim_threads});

  FaultInjector injector(harness.events(), harness.network());
  if (with_faults) {
    FaultPlan plan;
    plan.flap_plane(2 * kMillisecond, 2 * kMillisecond, 0);
    plan.merge(FaultPlan::random_degraded_links(
        harness.net(), 2, kMillisecond, 4 * kMillisecond, 0.02, 1.0, 99));
    injector.arm(plan);
  }

  const int n = harness.net().num_hosts();
  for (int h = 0; h < n; ++h) {
    // Staggered permutation: cross-shard pairs at every distance.
    harness.starter()(HostId{h}, HostId{(h + 5) % n}, 400'000,
                      static_cast<SimTime>(h) * 10 * kMicrosecond, {});
  }
  harness.run_until(20 * kMillisecond);
  harness.finalize(harness.events().now());

  RunOutput out;
  out.dispatched = harness.dispatched();
  out.delivered_bytes = harness.factory().total_delivered_bytes();
  for (const auto& r : harness.logger().records()) {
    out.records.emplace_back(r.src.v, r.dst.v, r.delivered_bytes, r.start, r.end,
                             r.retransmits, r.timeouts, r.repaths);
  }
  return out;
}

TEST(ShardedEngine, IdenticalResultsAcrossWorkerCounts) {
  const RunOutput base = run_workload(/*sim_threads=*/1,
                                      /*with_faults=*/false);
  EXPECT_GT(base.records.size(), 0u);
  EXPECT_GT(base.delivered_bytes, 0u);
  for (const int workers : {2, 4, 8}) {
    const RunOutput other = run_workload(workers, /*with_faults=*/false);
    EXPECT_EQ(other.records, base.records) << "sim_threads=" << workers;
    EXPECT_EQ(other.dispatched, base.dispatched)
        << "sim_threads=" << workers;
    EXPECT_EQ(other.delivered_bytes, base.delivered_bytes)
        << "sim_threads=" << workers;
  }
}

TEST(ShardedEngine, IdenticalResultsUnderFaultInjection) {
  const RunOutput base = run_workload(/*sim_threads=*/1,
                                      /*with_faults=*/true);
  EXPECT_GT(base.records.size(), 0u);
  const RunOutput other = run_workload(/*sim_threads=*/4,
                                       /*with_faults=*/true);
  EXPECT_EQ(other.records, base.records);
  EXPECT_EQ(other.dispatched, base.dispatched);
  EXPECT_EQ(other.delivered_bytes, base.delivered_bytes);
}

// ------------------------------------------- hand-built reference

/// The reference the sharded engine answers to: the same paths built by
/// hand from Queue, Pipe, TcpSrc and TcpSink on one EventQueue, the way
/// transport_details_test's Wire is — no shard, barrier or boundary
/// handoff in the way. Links that several paths cross share one queue.
class HandBuilt {
 public:
  explicit HandBuilt(const topo::ParallelNetwork& net) : net_(net) {}

  /// A TCP flow over `path`, its ACKs riding the reverse links.
  void flow(const routing::Path& path, std::uint64_t bytes, SimTime start) {
    const TcpParams& params = config_.tcp;
    const FlowId id{static_cast<int>(sources_.size())};
    sources_.push_back(std::make_unique<TcpSrc>(events_, pool_, id, params));
    sinks_.push_back(std::make_unique<TcpSink>(events_, pool_, params));
    routing::Path reverse{path.plane, {}};
    for (auto it = path.links.rbegin(); it != path.links.rend(); ++it) {
      reverse.links.push_back(net_.plane(path.plane).graph.reverse(*it));
    }
    routes_.push_back(std::make_unique<OwnedRoute>());
    routes_.back()->assign(chain(path, *sinks_.back()), path.hops());
    const Route* data = routes_.back()->get();
    routes_.push_back(std::make_unique<OwnedRoute>());
    routes_.back()->assign(chain(reverse, *sources_.back()), path.hops());
    sinks_.back()->set_ack_route(routes_.back()->get());
    sources_.back()->set_flow_size(bytes);
    sources_.back()->connect(data, start);
  }

  void run() { events_.run(); }
  [[nodiscard]] const TcpSrc& source(std::size_t i) const {
    return *sources_[i];
  }

 private:
  std::vector<PacketSink*> chain(const routing::Path& path,
                                 PacketSink& endpoint) {
    std::vector<PacketSink*> sinks;
    for (const LinkId id : path.links) {
      auto& [queue, pipe] = links_[{path.plane, id.v}];
      if (queue == nullptr) {
        const topo::Link& link = net_.plane(path.plane).graph.link(id);
        queue = std::make_unique<Queue>(events_, pool_, link.rate_bps,
                                        config_.queue_buffer_bytes);
        pipe = std::make_unique<Pipe>(events_, link.latency);
      }
      sinks.push_back(queue.get());
      sinks.push_back(pipe.get());
    }
    sinks.push_back(&endpoint);
    return sinks;
  }

  const topo::ParallelNetwork& net_;
  const SimConfig config_{};
  EventQueue events_;
  PacketPool pool_;
  std::map<std::pair<int, int>,
           std::pair<std::unique_ptr<Queue>, std::unique_ptr<Pipe>>>
      links_;
  std::vector<std::unique_ptr<TcpSrc>> sources_;
  std::vector<std::unique_ptr<TcpSink>> sinks_;
  std::vector<std::unique_ptr<OwnedRoute>> routes_;
};

routing::Path host_path(const topo::ParallelNetwork& net, int plane,
                        HostId src, HostId dst) {
  auto path = routing::shortest_path(net.plane(plane).graph,
                                     net.host_node(plane, src),
                                     net.host_node(plane, dst));
  EXPECT_TRUE(path.has_value());
  path->plane = plane;
  return *path;
}

struct TestFlow {
  HostId src;
  HostId dst;
  int plane;
  std::uint64_t bytes;
};

/// Runs `flows` (all starting at 0) to natural drain on a harness with
/// `sim_threads` workers and on the hand-built reference, and requires the
/// same completion time and delivered bytes for every flow.
void expect_matches_hand_built(const topo::NetworkSpec& spec,
                               const std::vector<TestFlow>& flows,
                               int sim_threads) {
  core::SimHarness harness({.spec = spec,
                            .policy = {},
                            .sim_threads = sim_threads});
  HandBuilt reference(harness.net());
  for (const TestFlow& f : flows) {
    const routing::Path path = host_path(harness.net(), f.plane, f.src, f.dst);
    harness.factory().tcp_flow(f.src, f.dst, path, f.bytes, 0);
    reference.flow(path, f.bytes, 0);
  }
  harness.run();
  reference.run();
  const auto& records = harness.logger().records();
  ASSERT_EQ(records.size(), flows.size());
  for (const sim::FlowRecord& r : records) {
    const auto i = static_cast<std::size_t>(r.id.v);
    ASSERT_TRUE(reference.source(i).complete()) << "flow " << i;
    EXPECT_EQ(r.end, reference.source(i).completion_time()) << "flow " << i;
    EXPECT_EQ(r.delivered_bytes, reference.source(i).acked_bytes())
        << "flow " << i;
  }
}

TEST(ShardedEngine, RunsToNaturalDrainWithoutDeadline) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  spec.hosts = 16;
  spec.parallelism = 4;
  // Both flows cross shards at each end: host 0 and 15 live on shards 0
  // and 3, hosts 3 and 9 on shards 3 and 1.
  expect_matches_hand_built(spec,
                            {{HostId{0}, HostId{15}, 1, 1'000'000},
                             {HostId{3}, HostId{9}, 2, 1'000'000}},
                            /*sim_threads=*/4);
}

TEST(ShardedEngine, BoundaryConservationUnderAudit) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  spec.hosts = 16;
  spec.parallelism = 4;
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kKspMultipath;
  policy.k = 4;
  util::Audit audit;  // collecting: inspect violations at the end
  core::SimHarness harness({.spec = spec,
                            .policy = policy,
                            .audit = &audit,
                            .sim_threads = 4});
  const int n = harness.net().num_hosts();
  for (int h = 0; h < n; ++h) {
    harness.starter()(HostId{h}, HostId{(h + n / 2) % n}, 200'000, 0, {});
  }
  harness.run();
  harness.finalize(harness.events().now());

  // Real cross-shard traffic happened, and every boundary packet that was
  // sent was integrated and delivered (mailboxes and arrival buffers are
  // empty after a drained run).
  EXPECT_GT(harness.shards().boundary_sent(), 0u);
  EXPECT_EQ(harness.shards().boundary_sent(),
            harness.shards().boundary_delivered());
  EXPECT_EQ(audit.violations().size(), 0u)
      << "first: " << audit.violations().front();
}

TEST(ShardedEngine, SinglePlaneTopologyStillWorks) {
  // Degenerate sharding: one plane, one shard — the epoch loop must not
  // deadlock or disagree with the hand-built reference.
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.hosts = 16;
  expect_matches_hand_built(spec, {{HostId{1}, HostId{14}, 0, 500'000}},
                            /*sim_threads=*/4);
}

TEST(ShardedEngine, SinglePlaneBackToBackRoundsAllFinish) {
  // Regression: one plane has no shard crossing, and an unbounded epoch
  // ran every clock to kNever, so the second round started at infinity
  // and never finished.
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.hosts = 16;
  core::SimHarness harness({.spec = spec, .policy = {}, .sim_threads = 1});
  Rng rng(5);
  int started = 0;
  int finished = 0;
  for (int round = 0; round < 2; ++round) {
    for (const auto& [src, dst] :
         workload::permutation_pairs(harness.net().num_hosts(), rng)) {
      ++started;
      harness.starter()(src, dst, 200'000, harness.events().now(),
                        [&finished](const FlowRecord&) { ++finished; });
    }
    harness.run();
  }
  EXPECT_EQ(started, 2 * harness.net().num_hosts());
  EXPECT_EQ(finished, started);
  EXPECT_LT(harness.events().now(), units::kSecond);
}

// ------------------------------------------------------- flow lifecycle

/// Runs `fn` from a control-queue event at `at`: on the coordinator,
/// between epochs, as a workload app would.
class AtTime : public EventSource {
 public:
  AtTime(EventQueue& events, SimTime at, std::function<void()> fn)
      : fn_(std::move(fn)) {
    events.schedule_at(at, this);
  }
  void do_next_event() override { fn_(); }

 private:
  std::function<void()> fn_;
};

topo::NetworkSpec lifecycle_fat_tree(int planes) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.hosts = 16;
  if (planes > 1) {
    spec.type = topo::NetworkType::kParallelHomogeneous;
    spec.parallelism = planes;
  }
  return spec;
}

struct ReuseRun {
  const TcpSrc* first = nullptr;
  const TcpSrc* second = nullptr;
  std::vector<std::tuple<int, SimTime, SimTime, int, int>> records;
  std::uint64_t dispatched = 0;
  std::size_t slots = 0;
  std::size_t violations = 0;
};

/// One plane (one shard). The first flow (host 0 -> 1, one initial window)
/// completes within microseconds, leaving its RTO wake-up pending at
/// 10 ms, and retires at the next barrier. The second is created at 5 ms
/// from the control queue to start at 15 ms; when both run it reuses the
/// first one's slots, so the stale wake-up at 10 ms lands on its source.
ReuseRun run_reuse(bool first, bool second) {
  util::Audit audit;
  core::SimHarness harness(
      {.spec = lifecycle_fat_tree(1), .policy = {}, .audit = &audit});
  FlowFactory& factory = harness.factory();
  const routing::Path path =
      host_path(harness.net(), 0, HostId{0}, HostId{1});
  ReuseRun out;
  if (first) out.first = &factory.tcp_flow(HostId{0}, HostId{1}, path,
                                           15'000, 0);
  AtTime create(harness.events(), 5 * kMillisecond, [&] {
    if (second) {
      out.second = &factory.tcp_flow(HostId{0}, HostId{1}, path, 1'000'000,
                                     15 * kMillisecond);
    }
  });
  harness.run();
  harness.finalize(harness.events().now());
  for (const FlowRecord& r : harness.logger().records()) {
    out.records.emplace_back(r.id.v, r.start, r.end, r.retransmits,
                             r.timeouts);
  }
  out.dispatched = harness.dispatched();
  out.slots = factory.endpoint_slots();
  out.violations = audit.violations().size();
  return out;
}

TEST(FlowLifecycle, StaleWakeOfARetiredFlowNeverReachesItsSlotsNextFlow) {
  const ReuseRun both = run_reuse(true, true);
  const ReuseRun only_first = run_reuse(true, false);
  const ReuseRun only_second = run_reuse(false, true);
  // The second flow took over the first one's source and sink.
  ASSERT_NE(both.first, nullptr);
  EXPECT_EQ(both.second, both.first);
  EXPECT_EQ(both.slots, 2u);
  // The stale wake-up is dispatched and counted: the run dispatches what
  // the two flows dispatch alone (the control event counted once).
  EXPECT_EQ(both.dispatched + 1,
            only_first.dispatched + only_second.dispatched);
  // It neither started the second flow at 10 ms nor touched it later.
  ASSERT_EQ(both.records.size(), 2u);
  ASSERT_EQ(only_second.records.size(), 1u);
  const auto& [id, start, end, retransmits, timeouts] = both.records[1];
  const auto& [id_alone, start_alone, end_alone, retransmits_alone,
               timeouts_alone] = only_second.records[0];
  EXPECT_EQ(start, 15 * kMillisecond);
  EXPECT_EQ(end, end_alone);
  EXPECT_EQ(retransmits, retransmits_alone);
  EXPECT_EQ(timeouts, 0);
  EXPECT_EQ(both.records[0], only_first.records[0]);
  EXPECT_EQ(both.violations, 0u);
}

TEST(FlowLifecycle, CompletedFlowKeepsItsSlotsWhileItsPacketsAreInFlight) {
  // Flow A starts on plane 0, whose host link runs at 1% of its rate, and
  // is re-pinned to plane 1 a microsecond later: it completes there while
  // its first window still crawls through plane 0 towards the sink.
  util::Audit audit;
  core::SimHarness harness({.spec = lifecycle_fat_tree(2),
                            .policy = {},
                            .audit = &audit,
                            .sim_threads = 2});
  FlowFactory& factory = harness.factory();
  const HostId src{0};
  const HostId dst{1};
  const routing::Path slow = host_path(harness.net(), 0, src, dst);
  const routing::Path fast = host_path(harness.net(), 1, src, dst);
  harness.network().set_cable_degraded(0, slow.links.front(), 0.0, 0.01);
  factory.set_repath_provider(
      [](HostId, HostId, int, std::uint64_t) {
        return std::vector<routing::Path>{};
      });
  const TcpSrc& a = factory.tcp_flow(src, dst, slow, 150'000, 0);
  harness.run_until(kMicrosecond);
  ASSERT_EQ(factory.repin_flows(0, 1,
                                [&fast](HostId, HostId, std::uint64_t) {
                                  return std::vector<routing::Path>{fast};
                                }),
            1);
  SimTime t = kMicrosecond;
  while (harness.logger().records().empty()) {
    t += kMicrosecond;
    harness.run_until(t);
    ASSERT_LT(t, kMillisecond) << "flow A never completed";
  }
  // Complete, but its first window is still queued on plane 0 (and the
  // duplicates' ACKs are yet to come): its slots stay held, so a flow
  // created now gets fresh ones.
  ASSERT_GT(harness.network().plane_queued_bytes(0), 0u);
  const TcpSrc& b = factory.tcp_flow(src, dst, fast, 100'000'000, t);
  EXPECT_NE(&b, &a);
  EXPECT_EQ(factory.endpoint_slots(), 4u);
  // Once plane 0 drained and the last packets crossed their pipes, A's
  // slots are free again, and the next flow takes them over.
  while (harness.network().plane_queued_bytes(0) > 0) {
    t += kMicrosecond;
    harness.run_until(t);
  }
  t += 10 * kMicrosecond;
  harness.run_until(t);
  const TcpSrc& c = factory.tcp_flow(src, dst, fast, 1'500, t);
  EXPECT_EQ(&c, &a);
  EXPECT_EQ(factory.endpoint_slots(), 4u);
  harness.run_until(t + kMillisecond);
  harness.finalize(harness.events().now());
  EXPECT_EQ(harness.logger().records().size(), 3u);
  EXPECT_EQ(audit.violations().size(), 0u)
      << "first: " << audit.violations().front();
}

struct ClosedLoopOutput {
  std::vector<std::tuple<int, int, int, std::uint64_t, SimTime, SimTime,
                         int, int>>
      records;
  std::uint64_t dispatched = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t drops = 0;
  int flows = 0;
  int multipath = 0;  // records of flows with more than one subflow
  std::size_t slots = 0;
  int peak_held = 0;
  std::size_t violations = 0;
};

/// bench_fig11's closed loop on a small fabric with shallow buffers: 100 kB
/// requests and 1.5 kB replies, 4 outstanding per host, 12 rounds, audited.
/// Shortest-plane routing runs single-path TCP; `mptcp` routes every flow
/// over two KSP paths, so connections and their subflows get recycled.
ClosedLoopOutput run_closed_loop(int planes, int sim_threads,
                                 bool mptcp = false) {
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kShortestPlane;
  if (mptcp) {
    policy.policy = core::RoutingPolicy::kKspMultipath;
    policy.k = 2;
  }
  sim::SimConfig config;
  config.queue_buffer_bytes = 20 * 1500;
  util::Audit audit;
  core::SimHarness harness({.spec = lifecycle_fat_tree(planes),
                            .policy = policy,
                            .sim_config = config,
                            .audit = &audit,
                            .sim_threads = sim_threads});
  const int hosts = harness.net().num_hosts();
  workload::ClosedLoopApp app(
      harness.starter(), harness.all_hosts(),
      {.concurrent_per_host = 4,
       .response_bytes = 1500,
       .rounds_per_worker = 12,
       .seed = 7},
      [hosts](HostId src, Rng& rng) {
        return workload::random_destination(hosts, src, rng);
      },
      [](Rng&) { return std::uint64_t{100'000}; });
  app.start(0);
  harness.run();
  harness.finalize(harness.events().now());
  ClosedLoopOutput out;
  for (const FlowRecord& r : harness.logger().records()) {
    out.records.emplace_back(r.id.v, r.src.v, r.dst.v, r.delivered_bytes,
                             r.start, r.end, r.retransmits, r.timeouts);
    out.multipath += r.subflows > 1 ? 1 : 0;
  }
  out.dispatched = harness.dispatched();
  out.delivered_bytes = harness.factory().total_delivered_bytes();
  out.drops = harness.network().total_drops();
  out.flows = harness.factory().flows_created();
  out.slots = harness.factory().endpoint_slots();
  out.peak_held = harness.factory().peak_held_flows();
  out.violations = audit.violations().size();
  return out;
}

TEST(FlowLifecycle, ClosedLoopHoldsSlotsForLiveAndDrainingFlowsOnly) {
  // One shard: its two pools (sources, sinks) each grow to the most flows
  // held at once, and no further.
  const ClosedLoopOutput one = run_closed_loop(1, 1);
  EXPECT_EQ(one.flows, 16 * 4 * 12 * 2);
  EXPECT_EQ(static_cast<int>(one.records.size()), one.flows);
  EXPECT_GT(one.drops, 0u);
  EXPECT_EQ(one.slots, 2 * static_cast<std::size_t>(one.peak_held));
  // Live flows are at most one per worker; the draining ones add little.
  EXPECT_LE(one.peak_held, 2 * 16 * 4);
  EXPECT_EQ(one.violations, 0u);

  // Four shards, each pool bounded by the flows held at once; the same
  // bytes, events and slots at every worker count.
  const ClosedLoopOutput base = run_closed_loop(4, 1);
  EXPECT_EQ(static_cast<int>(base.records.size()), base.flows);
  EXPECT_GT(base.drops, 0u);
  EXPECT_LE(base.slots, 2 * 4 * static_cast<std::size_t>(base.peak_held));
  EXPECT_LE(base.peak_held, 2 * 16 * 4);
  EXPECT_LT(base.slots, static_cast<std::size_t>(base.flows));
  EXPECT_EQ(base.violations, 0u);
  for (const int workers : {2, 4}) {
    const ClosedLoopOutput other = run_closed_loop(4, workers);
    EXPECT_EQ(other.records, base.records) << "sim_threads=" << workers;
    EXPECT_EQ(other.dispatched, base.dispatched) << "sim_threads=" << workers;
    EXPECT_EQ(other.delivered_bytes, base.delivered_bytes)
        << "sim_threads=" << workers;
    EXPECT_EQ(other.slots, base.slots) << "sim_threads=" << workers;
    EXPECT_EQ(other.violations, 0u) << "sim_threads=" << workers;
  }
}

TEST(FlowLifecycle, RecycledMptcpConnectionsMatchAcrossWorkerCounts) {
  const ClosedLoopOutput base = run_closed_loop(4, 1, /*mptcp=*/true);
  EXPECT_EQ(static_cast<int>(base.records.size()), base.flows);
  EXPECT_GT(base.multipath, base.flows / 2);
  EXPECT_GT(base.drops, 0u);
  // Without reuse each two-subflow flow would hold three slots (its
  // connection and two sinks); together they stay below one per flow.
  EXPECT_LT(base.slots, static_cast<std::size_t>(base.flows));
  EXPECT_EQ(base.violations, 0u);
  for (const int workers : {2, 4}) {
    const ClosedLoopOutput other = run_closed_loop(4, workers, true);
    EXPECT_EQ(other.records, base.records) << "sim_threads=" << workers;
    EXPECT_EQ(other.dispatched, base.dispatched) << "sim_threads=" << workers;
    EXPECT_EQ(other.delivered_bytes, base.delivered_bytes)
        << "sim_threads=" << workers;
    EXPECT_EQ(other.slots, base.slots) << "sim_threads=" << workers;
    EXPECT_EQ(other.violations, 0u) << "sim_threads=" << workers;
  }
}

/// Frees every packet it receives.
class Drain : public PacketSink {
 public:
  explicit Drain(PacketPool& pool) : pool_(pool) {}
  void receive(Packet& packet) override {
    ++received;
    pool_.free(&packet);
  }
  int received = 0;

 private:
  PacketPool& pool_;
};

TEST(FlowLifecycle, AuditFailsDeliveriesIntoRetiredOrRecycledEndpoints) {
  EventQueue events;
  PacketPool pool;
  util::Audit audit;  // collecting
  events.set_audit(&audit);
  Drain acks(pool);
  OwnedRoute ack_route({&acks});
  TcpSink sink(events, pool, TcpParams{}, FlowId{3});
  sink.set_ack_route(ack_route.get());
  const auto deliver = [&](int flow) {
    Packet* p = pool.allocate();
    p->flow = FlowId{flow};
    p->size_bytes = 1500;
    sink.receive(*p);
  };
  deliver(3);  // its own flow: ACKed
  EXPECT_EQ(acks.received, 1);
  EXPECT_TRUE(audit.violations().empty());
  deliver(4);  // a slot recycled for flow 3 still reached by flow 4
  sink.poison();
  deliver(3);  // a retired slot still reached by its old flow
  EXPECT_EQ(audit.violations().size(), 2u);
  EXPECT_EQ(acks.received, 1);  // neither was processed
  EXPECT_EQ(sink.packets_ended(), 3u);
  EXPECT_EQ(pool.live(), 0u);
}

}  // namespace
}  // namespace pnet::sim
