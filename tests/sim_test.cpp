// Tests for the packet simulator: event ordering, queue/pipe timing, TCP
// throughput/fairness/loss recovery, MPTCP aggregation and coupling, and
// the flow factory plumbing.
#include <gtest/gtest.h>

#include <vector>

#include "routing/plane_paths.hpp"
#include "routing/shortest.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/packet.hpp"
#include "sim/pipe.hpp"
#include "sim/queue.hpp"
#include "sim/shard.hpp"
#include "topo/parallel.hpp"

namespace pnet::sim {
namespace {

using namespace pnet::units;

// ------------------------------------------------------------ event queue

class RecordingSource : public EventSource {
 public:
  explicit RecordingSource(EventQueue& events, std::vector<int>& log, int id)
      : events_(events), log_(log), id_(id) {}
  void do_next_event() override {
    log_.push_back(id_);
    fired_at_ = events_.now();
  }
  SimTime fired_at_ = -1;

 private:
  EventQueue& events_;
  std::vector<int>& log_;
  int id_;
};

TEST(EventQueueTest, DispatchesInTimeOrder) {
  EventQueue events;
  std::vector<int> log;
  RecordingSource a(events, log, 1), b(events, log, 2), c(events, log, 3);
  events.schedule_at(30, &c);
  events.schedule_at(10, &a);
  events.schedule_at(20, &b);
  events.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(events.now(), 30);
}

TEST(EventQueueTest, TiesDispatchInScheduleOrder) {
  EventQueue events;
  std::vector<int> log;
  RecordingSource a(events, log, 1), b(events, log, 2);
  events.schedule_at(5, &b);
  events.schedule_at(5, &a);
  events.run();
  EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueueTest, ManyTiesDispatchInScheduleOrderThroughHeapChurn) {
  // Regression for the vector-backed binary heap: sift_up/sift_down swap
  // entries freely, so FIFO order within a timestamp must come from the
  // sequence number, not from insertion position. Interleave three
  // timestamp groups, scheduled out of time order, with enough entries
  // that the heap reshuffles many times.
  EventQueue events;
  events.reserve(96);
  std::vector<int> log;
  std::vector<std::unique_ptr<RecordingSource>> sources;
  // ids 0..31 at t=20, 100..131 at t=10, 200..231 at t=30, round-robin.
  for (int i = 0; i < 32; ++i) {
    for (const auto& [base, when] :
         {std::pair{0, 20}, std::pair{100, 10}, std::pair{200, 30}}) {
      sources.push_back(
          std::make_unique<RecordingSource>(events, log, base + i));
      events.schedule_at(when, sources.back().get());
    }
  }
  events.run();
  ASSERT_EQ(log.size(), 96u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(log[i], 100 + i);       // t=10 group, scheduling order
    EXPECT_EQ(log[32 + i], i);        // t=20 group
    EXPECT_EQ(log[64 + i], 200 + i);  // t=30 group
  }
  EXPECT_EQ(events.dispatched(), 96u);
}

TEST(EventQueueTest, DispatchedCountsAcrossRuns) {
  EventQueue events;
  std::vector<int> log;
  RecordingSource a(events, log, 1);
  events.schedule_at(10, &a);
  events.run();
  events.schedule_at(20, &a);
  events.run();
  EXPECT_EQ(events.dispatched(), 2u);
  EXPECT_TRUE(events.empty());
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue events;
  std::vector<int> log;
  RecordingSource a(events, log, 1), b(events, log, 2);
  events.schedule_at(10, &a);
  events.schedule_at(100, &b);
  events.run_until(50);
  EXPECT_EQ(log, (std::vector<int>{1}));
  EXPECT_EQ(events.now(), 50);
  EXPECT_EQ(events.pending(), 1u);
}

// ------------------------------------------------------------- queue/pipe

class CollectSink : public PacketSink {
 public:
  CollectSink(EventQueue& events, PacketPool& pool)
      : events_(events), pool_(pool) {}
  void receive(Packet& packet) override {
    arrival_times.push_back(events_.now());
    seqs.push_back(packet.seq);
    pool_.free(&packet);
  }
  std::vector<SimTime> arrival_times;
  std::vector<std::uint64_t> seqs;

 private:
  EventQueue& events_;
  PacketPool& pool_;
};

Packet* make_data_packet(PacketPool& pool, const Route* route,
                         std::uint64_t seq, std::uint32_t size) {
  Packet* p = pool.allocate();
  p->seq = seq;
  p->size_bytes = size;
  p->route = route;
  p->next_hop = 0;
  return p;
}

TEST(QueueTest, SerializesBackToBack) {
  EventQueue events;
  PacketPool pool;
  CollectSink sink(events, pool);
  Queue queue(events, pool, 100e9, 1'000'000);
  OwnedRoute route({&queue, &sink});

  for (int i = 0; i < 3; ++i) {
    make_data_packet(pool, &route, i, 1500)->forward();
  }
  events.run();
  // 1500 B at 100 Gb/s = 120 ns per packet, back to back.
  ASSERT_EQ(sink.arrival_times.size(), 3u);
  EXPECT_EQ(sink.arrival_times[0], 120 * kNanosecond);
  EXPECT_EQ(sink.arrival_times[1], 240 * kNanosecond);
  EXPECT_EQ(sink.arrival_times[2], 360 * kNanosecond);
  EXPECT_EQ(sink.seqs, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(queue.forwarded(), 3u);
  EXPECT_EQ(queue.drops(), 0u);
}

TEST(QueueTest, TailDropsWhenFull) {
  EventQueue events;
  PacketPool pool;
  CollectSink sink(events, pool);
  // Room for exactly 2 packets.
  Queue queue(events, pool, 100e9, 3000);
  OwnedRoute route({&queue, &sink});
  for (int i = 0; i < 5; ++i) {
    make_data_packet(pool, &route, i, 1500)->forward();
  }
  events.run();
  EXPECT_EQ(queue.drops(), 3u);
  EXPECT_EQ(sink.seqs, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(pool.live(), 0u);  // drops are returned to the pool
}

TEST(PipeTest, AddsFixedLatencyAndKeepsOrder) {
  EventQueue events;
  PacketPool pool;
  CollectSink sink(events, pool);
  Pipe pipe(events, kMicrosecond);
  OwnedRoute route({&pipe, &sink});
  make_data_packet(pool, &route, 0, 1500)->forward();
  events.run_until(300 * kNanosecond);
  EXPECT_TRUE(sink.arrival_times.empty());  // still in flight
  make_data_packet(pool, &route, 1, 1500)->forward();
  events.run();
  ASSERT_EQ(sink.arrival_times.size(), 2u);
  EXPECT_EQ(sink.arrival_times[0], kMicrosecond);
  EXPECT_EQ(sink.arrival_times[1], kMicrosecond + 300 * kNanosecond);
}

TEST(PacketPoolTest, Recycles) {
  PacketPool pool;
  Packet* a = pool.allocate();
  pool.free(a);
  Packet* b = pool.allocate();
  EXPECT_EQ(a, b);  // free-list reuse
  EXPECT_EQ(pool.allocated(), 1u);
}

// ------------------------------------------------------------- TCP flows

/// The network and flow factory on their shards (one per plane, run
/// inline), without the routing layer of core::SimHarness.
struct Harness {
  explicit Harness(topo::NetworkSpec spec,
                   std::uint64_t buffer_bytes = 100 * 1500)
      : net(topo::build_network(spec)), shards(net.num_planes(), 1) {
    config.queue_buffer_bytes = buffer_bytes;
    network = std::make_unique<SimNetwork>(control, net, config, shards);
    factory = std::make_unique<FlowFactory>(control, *network, logger);
  }

  routing::Path path(int src, int dst, int plane = 0) const {
    auto p = routing::shortest_path(net.plane(plane).graph,
                                    net.host_node(plane, HostId{src}),
                                    net.host_node(plane, HostId{dst}));
    EXPECT_TRUE(p.has_value());
    p->plane = plane;
    return *p;
  }

  /// The event queue and packet pool of `host`'s shard, for endpoints
  /// built by hand.
  EventQueue& events(HostId host) { return shards.host_events(host); }
  PacketPool& pool(HostId host) { return shards.host_pool(host); }

  void run() { shards.run(control); }
  void run_until(SimTime deadline) { shards.run_until(control, deadline); }

  EventQueue control;
  topo::ParallelNetwork net;
  ShardSet shards;
  SimConfig config;
  FlowLogger logger;
  std::unique_ptr<SimNetwork> network;
  std::unique_ptr<FlowFactory> factory;
};

topo::NetworkSpec small_fat_tree(topo::NetworkType type =
                                     topo::NetworkType::kSerialLow,
                                 int parallelism = 1) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.hosts = 16;
  spec.type = type;
  spec.parallelism = parallelism;
  return spec;
}

TEST(Tcp, SingleFlowReachesLinkRate) {
  Harness h(small_fat_tree());
  const std::uint64_t size = 10 * kMB;
  h.factory->tcp_flow(HostId{0}, HostId{15}, h.path(0, 15), size, 0);
  h.run();
  ASSERT_EQ(h.logger.records().size(), 1u);
  const auto& record = h.logger.records().front();
  const double fct_s = units::to_seconds(record.end - record.start);
  const double ideal_s = static_cast<double>(size) * 8.0 / 100e9;
  // Slow start, ACK clocking and the tail-drop sawtooth cost something
  // (loss-probing NewReno in 100-packet buffers runs at ~2/3 line rate),
  // but an uncontended flow must stay within that envelope.
  EXPECT_LT(fct_s, ideal_s * 1.60);
  EXPECT_GT(fct_s, ideal_s);
  // Shallow buffers make some probing loss inevitable; it must stay small.
  const double packets = static_cast<double>(size) / 1500.0;
  EXPECT_LT(record.retransmits, 0.06 * packets);
  EXPECT_EQ(record.timeouts, 0);
  EXPECT_EQ(record.hops, 6);  // inter-pod path
}

TEST(Tcp, CompletionDeliversAllBytesExactlyOnce) {
  Harness h(small_fat_tree());
  h.factory->tcp_flow(HostId{0}, HostId{2}, h.path(0, 2), 1'000'000, 0);
  h.run();
  ASSERT_EQ(h.logger.records().size(), 1u);
  EXPECT_EQ(h.logger.records().front().bytes, 1'000'000u);
  EXPECT_EQ(h.pool(HostId{0}).live(), 0u);  // no leaked packets after drain
}

TEST(Tcp, SubMssFlowCompletes) {
  Harness h(small_fat_tree());
  h.factory->tcp_flow(HostId{0}, HostId{5}, h.path(0, 5), 300, 0);
  h.run();
  ASSERT_EQ(h.logger.records().size(), 1u);
  // One segment + ACK round trip; certainly under 50 us on this topology.
  EXPECT_LT(h.logger.fct_us().front(), 50.0);
}

TEST(Tcp, TwoFlowsShareBottleneckFairly) {
  // Long-run goodput shares on a shared 100G downlink. (FCTs of short
  // competing flows are dominated by which flow loses the slow-start
  // overshoot lottery — Fig 11c's phenomenon — so fairness is asserted in
  // steady state.)
  Harness h(small_fat_tree());
  const std::uint64_t huge = 10'000 * kMB;
  auto& a = h.factory->tcp_flow(HostId{0}, HostId{15}, h.path(0, 15), huge,
                                0);
  auto& b = h.factory->tcp_flow(HostId{4}, HostId{15}, h.path(4, 15), huge,
                                0);
  h.run_until(60 * kMillisecond);
  const double bytes_a = static_cast<double>(a.acked_bytes());
  const double bytes_b = static_cast<double>(b.acked_bytes());
  const double share = bytes_a / (bytes_a + bytes_b);
  EXPECT_GT(share, 0.35);
  EXPECT_LT(share, 0.65);
  // And together they must fill most of the 100G bottleneck.
  const double capacity_bytes = 100e9 / 8 * 0.060;
  EXPECT_GT(bytes_a + bytes_b, 0.75 * capacity_bytes);
}

TEST(Tcp, RecoversFromTailDrops) {
  // Shallow 8-packet buffers force loss during slow start.
  Harness h(small_fat_tree(), 8 * 1500);
  const std::uint64_t size = 5 * kMB;
  h.factory->tcp_flow(HostId{0}, HostId{15}, h.path(0, 15), size, 0);
  h.factory->tcp_flow(HostId{1}, HostId{15}, h.path(1, 15), size, 0);
  h.run();
  ASSERT_EQ(h.logger.records().size(), 2u);  // both complete despite drops
  EXPECT_GT(h.network->total_drops(), 0u);
  EXPECT_GT(h.logger.total_retransmits(), 0);
}

/// Drops the first N data packets it sees, then forwards everything.
class DropFirstN : public PacketSink {
 public:
  DropFirstN(PacketPool& pool, int n) : pool_(pool), remaining_(n) {}
  void receive(Packet& packet) override {
    if (!packet.is_ack && remaining_ > 0) {
      --remaining_;
      pool_.free(&packet);
      return;
    }
    packet.forward();
  }

 private:
  PacketPool& pool_;
  int remaining_;
};

std::unique_ptr<TcpSink> sinks_holder_;
std::unique_ptr<TcpSrc> src_holder_;
std::unique_ptr<OwnedRoute> owned_route_;

/// `base` with `head` spliced in front — the test idiom for interposing a
/// packet mangler before an interned route.
std::vector<PacketSink*> prepend_sink(PacketSink& head, const Route& base) {
  std::vector<PacketSink*> chain{&head};
  chain.insert(chain.end(), base.sinks.begin(), base.sinks.end());
  return chain;
}

TEST(Tcp, RetransmissionTimeoutFiresAtTunedMinimum) {
  // Drop the entire initial window: no dupACKs are possible, so recovery
  // must come from the 10 ms minimum RTO the paper tunes (section 5.1.2).
  Harness h(small_fat_tree());
  DropFirstN dropper(h.pool(HostId{0}), 10);

  // Build a route manually with the dropper in front.
  auto path = h.path(0, 15);
  sinks_holder_ = std::make_unique<TcpSink>(
      h.events(HostId{15}), h.pool(HostId{15}), h.config.tcp);
  src_holder_ = std::make_unique<TcpSrc>(h.events(HostId{0}),
                                         h.pool(HostId{0}), FlowId{0},
                                         h.config.tcp);
  const Route* base = h.network->make_route(path, *sinks_holder_);
  const Route* rev =
      h.network->make_reverse_route(path, *src_holder_);
  sinks_holder_->set_ack_route(rev);
  src_holder_->set_flow_size(15000);  // exactly the initial window
  SimTime done = -1;
  src_holder_->set_completion_callback(
      [&](TcpSrc& s) { done = s.completion_time(); });
  // The route object must outlive the run.
  owned_route_ = std::make_unique<OwnedRoute>();
  owned_route_->assign(prepend_sink(dropper, *base), base->hop_count);
  src_holder_->connect(owned_route_->get(), 0);
  h.run();
  ASSERT_GE(done, 10 * kMillisecond);  // had to wait for the RTO
  EXPECT_LT(done, 25 * kMillisecond);
  EXPECT_EQ(src_holder_->timeouts(), 1);

  sinks_holder_.reset();
  src_holder_.reset();
  owned_route_.reset();
}

// ------------------------------------------------------------ MPTCP

TEST(Mptcp, TwoDisjointPlanesDoubleThroughputUncoupled) {
  Harness parallel(small_fat_tree(topo::NetworkType::kParallelHomogeneous,
                                  2));
  const std::uint64_t size = 20 * kMB;
  std::vector<routing::Path> paths = {parallel.path(0, 15, 0),
                                      parallel.path(0, 15, 1)};
  parallel.factory->mptcp_flow(HostId{0}, HostId{15}, paths, size, 0, {},
                               Coupling::kUncoupled);
  parallel.run();
  ASSERT_EQ(parallel.logger.records().size(), 1u);
  const double fct_parallel = parallel.logger.fct_us().front();

  Harness serial(small_fat_tree());
  serial.factory->tcp_flow(HostId{0}, HostId{15}, serial.path(0, 15), size,
                           0);
  serial.run();
  const double fct_serial = serial.logger.fct_us().front();

  // Two planes, two independent subflows: close to 2x speedup.
  EXPECT_LT(fct_parallel, 0.62 * fct_serial);
}

TEST(Mptcp, LiaAlsoGainsFromDisjointPlanesOnBulkFlows) {
  // LIA ramps conservatively on disjoint paths (its documented trade-off,
  // and the reason section 5.1.2 of the paper finds flows must be large to
  // benefit from multipath), but a bulk flow must still beat single-path.
  Harness parallel(small_fat_tree(topo::NetworkType::kParallelHomogeneous,
                                  2));
  const std::uint64_t size = 50 * kMB;
  std::vector<routing::Path> paths = {parallel.path(0, 15, 0),
                                      parallel.path(0, 15, 1)};
  parallel.factory->mptcp_flow(HostId{0}, HostId{15}, paths, size, 0);
  parallel.run();
  const double fct_parallel = parallel.logger.fct_us().front();

  Harness serial(small_fat_tree());
  serial.factory->tcp_flow(HostId{0}, HostId{15}, serial.path(0, 15), size,
                           0);
  serial.run();
  const double fct_serial = serial.logger.fct_us().front();
  EXPECT_LT(fct_parallel, 0.85 * fct_serial);
}

TEST(Mptcp, SubflowCountRecorded) {
  Harness h(small_fat_tree(topo::NetworkType::kParallelHomogeneous, 2));
  std::vector<routing::Path> paths = {h.path(0, 15, 0), h.path(0, 15, 1)};
  h.factory->mptcp_flow(HostId{0}, HostId{15}, paths, kMB, 0);
  h.run();
  ASSERT_EQ(h.logger.records().size(), 1u);
  EXPECT_EQ(h.logger.records().front().subflows, 2);
}

TEST(Mptcp, LiaIsNotMoreAggressiveThanTcpOnSharedBottleneck) {
  // MPTCP with 2 subflows on the SAME path competing against one TCP flow
  // over a long window: linked increases must prevent it from grabbing the
  // ~2/3 share two independent TCPs would take, without starving it.
  Harness h(small_fat_tree(), 64 * 1500);
  const std::uint64_t huge = 10'000 * kMB;  // neither flow completes
  std::vector<routing::Path> same = {h.path(0, 15, 0), h.path(0, 15, 0)};
  auto& conn = h.factory->mptcp_flow(HostId{0}, HostId{15}, same, huge, 0);
  auto& tcp = h.factory->tcp_flow(HostId{4}, HostId{15}, h.path(4, 15),
                                  huge, 0);
  h.run_until(60 * kMillisecond);
  std::uint64_t mptcp_bytes = 0;
  for (int i = 0; i < conn.num_subflows(); ++i) {
    mptcp_bytes += conn.subflow(i).acked_bytes();
  }
  const auto tcp_bytes = tcp.acked_bytes();
  const double share = static_cast<double>(mptcp_bytes) /
                       static_cast<double>(mptcp_bytes + tcp_bytes);
  EXPECT_LT(share, 0.62);
  EXPECT_GT(share, 0.20);  // it must not starve either
}

TEST(Mptcp, CompletesWhenOneSubflowIsUseless) {
  // Second subflow routed through a dropper that kills everything; the
  // connection must still finish via the healthy subflow.
  Harness h(small_fat_tree(topo::NetworkType::kParallelHomogeneous, 2));
  auto good = h.path(0, 15, 0);
  auto bad = h.path(0, 15, 1);

  MptcpConnection conn(h.events(HostId{0}), h.pool(HostId{0}), FlowId{99},
                       h.config.tcp, 2 * kMB);
  // Healthy subflow.
  TcpSink good_sink(h.events(HostId{15}), h.pool(HostId{15}), h.config.tcp);
  {
    MptcpSubflow& sf = conn.add_subflow();
    const Route* fwd = h.network->make_route(good, good_sink);
    const Route* rev =
        h.network->make_reverse_route(good, sf);
    good_sink.set_ack_route(rev);
    sf.connect(fwd, 0);
  }
  // Black-holed subflow.
  DropFirstN dropper(h.pool(HostId{0}), 1 << 30);
  TcpSink bad_sink(h.events(HostId{15}), h.pool(HostId{15}), h.config.tcp);
  OwnedRoute bad_route;
  {
    MptcpSubflow& sf = conn.add_subflow();
    const Route* base = h.network->make_route(bad, bad_sink);
    bad_route.assign(prepend_sink(dropper, *base), base->hop_count);
    const Route* rev =
        h.network->make_reverse_route(bad, sf);
    bad_sink.set_ack_route(rev);
    sf.connect(&bad_route, 0);
  }
  bool completed = false;
  conn.set_completion_callback([&](MptcpConnection&) { completed = true; });
  h.run_until(2 * units::kSecond);
  EXPECT_TRUE(completed);
}

// ----------------------------------------------------------- FlowFactory

TEST(FlowFactoryTest, RecordsHopsAndEndpoints) {
  Harness h(small_fat_tree());
  h.factory->tcp_flow(HostId{0}, HostId{1}, h.path(0, 1), 1500, 0);
  h.run();
  ASSERT_EQ(h.logger.records().size(), 1u);
  const auto& r = h.logger.records().front();
  EXPECT_EQ(r.src, HostId{0});
  EXPECT_EQ(r.dst, HostId{1});
  EXPECT_EQ(r.hops, 2);  // same rack: host-ToR-host
}

TEST(FlowFactoryTest, CallbackFires) {
  Harness h(small_fat_tree());
  int called = 0;
  h.factory->tcp_flow(HostId{0}, HostId{1}, h.path(0, 1), 1500, 0,
                      [&](const FlowRecord&) { ++called; });
  h.run();
  EXPECT_EQ(called, 1);
}

TEST(FlowFactoryTest, StaggeredStartTimesHonored) {
  Harness h(small_fat_tree());
  h.factory->tcp_flow(HostId{0}, HostId{1}, h.path(0, 1), 1500,
                      5 * kMillisecond);
  h.run();
  ASSERT_EQ(h.logger.records().size(), 1u);
  EXPECT_GE(h.logger.records().front().end, 5 * kMillisecond);
  EXPECT_EQ(h.logger.records().front().start, 5 * kMillisecond);
}

}  // namespace
}  // namespace pnet::sim
