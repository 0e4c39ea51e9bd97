// White-box transport tests: receiver reassembly under loss/reordering,
// DCTCP window dynamics, RTT estimation, and MPTCP byte accounting —
// exercised through hand-built micro-networks rather than full topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/harness.hpp"
#include "sim/event_queue.hpp"
#include "sim/mptcp.hpp"
#include "sim/network.hpp"
#include "sim/pipe.hpp"
#include "sim/queue.hpp"
#include "sim/tcp.hpp"
#include "util/rng.hpp"

namespace pnet::sim {
namespace {

using namespace pnet::units;

/// Two hosts joined by one queue+pipe in each direction.
struct Wire {
  explicit Wire(double rate_bps = 100e9,
                std::uint64_t buffer = 100 * 1500,
                std::uint64_t ecn_threshold = 0)
      : fwd_queue(events, pool, rate_bps, buffer, ecn_threshold),
        fwd_pipe(events, kMicrosecond),
        rev_queue(events, pool, rate_bps, buffer, ecn_threshold),
        rev_pipe(events, kMicrosecond) {}

  /// Builds a TCP connection over the wire; returns the source.
  TcpSrc& connect(std::uint64_t bytes, const TcpParams& params = {}) {
    src = std::make_unique<TcpSrc>(events, pool, FlowId{1}, params);
    sink = std::make_unique<TcpSink>(events, pool, params);
    fwd_route.assign({&fwd_queue, &fwd_pipe, sink.get()}, 1);
    rev_route.assign({&rev_queue, &rev_pipe, src.get()}, 1);
    sink->set_ack_route(&rev_route);
    src->set_flow_size(bytes);
    src->connect(&fwd_route, 0);
    return *src;
  }

  EventQueue events;
  PacketPool pool;
  Queue fwd_queue;
  Pipe fwd_pipe;
  Queue rev_queue;
  Pipe rev_pipe;
  OwnedRoute fwd_route;
  OwnedRoute rev_route;
  std::unique_ptr<TcpSrc> src;
  std::unique_ptr<TcpSink> sink;
};

TEST(TcpDetails, RttEstimateMatchesWireDelay) {
  // Small flow (finishes in slow start, no standing queue): SRTT must land
  // near the 2 us wire RTT. A bulk flow would legitimately measure higher
  // because cwnd overshoot queues behind itself.
  Wire wire;
  auto& src = wire.connect(30'000);
  wire.events.run();
  ASSERT_TRUE(src.complete());
  EXPECT_GT(src.smoothed_rtt(), 2 * kMicrosecond);
  EXPECT_LT(src.smoothed_rtt(), 4 * kMicrosecond);
}

TEST(TcpDetails, BulkFlowMeasuresItsOwnQueueingDelay) {
  Wire wire;
  auto& src = wire.connect(1'000'000);
  wire.events.run();
  ASSERT_TRUE(src.complete());
  // cwnd overshoots the 25 kB bandwidth-delay product; the standing queue
  // inflates the RTT estimate well beyond the 2 us wire.
  EXPECT_GT(src.smoothed_rtt(), 4 * kMicrosecond);
}

TEST(TcpDetails, SinkReassemblesArbitraryInjectionOrder) {
  Wire wire;
  TcpParams params;
  TcpSink sink(wire.events, wire.pool, params);
  // ACK route: count cumulative acks at a capture sink.
  struct Capture : PacketSink {
    explicit Capture(PacketPool& pool) : pool_(pool) {}
    void receive(Packet& p) override {
      last_cum = p.ack_seq;
      pool_.free(&p);
    }
    std::uint64_t last_cum = 0;
    PacketPool& pool_;
  } capture(wire.pool);
  OwnedRoute ack_route({&capture});
  sink.set_ack_route(&ack_route);

  auto inject = [&](std::uint64_t seq, std::uint32_t size) {
    Packet* p = wire.pool.allocate();
    p->seq = seq;
    p->size_bytes = size;
    p->is_ack = false;
    // Deliver straight into the sink.
    sink.receive(*p);
  };
  // Segments 0..4 of 1000 bytes, delivered 3, 1, 4, 0, 2.
  inject(3000, 1000);
  EXPECT_EQ(capture.last_cum, 0u);
  inject(1000, 1000);
  EXPECT_EQ(capture.last_cum, 0u);
  inject(4000, 1000);
  inject(0, 1000);
  EXPECT_EQ(capture.last_cum, 2000u);  // 0 and 1 contiguous
  inject(2000, 1000);
  EXPECT_EQ(capture.last_cum, 5000u);  // everything drains
}

TEST(TcpDetails, HoleFillAcksLikeTheOneRangeAtATimeLoop) {
  // The sink's reassembly as it stood when it erased one absorbed
  // out-of-order range per loop turn. The sink now erases the absorbed
  // prefix in one call; it must send the same cumulative ACK for every
  // segment.
  struct OneAtATime {
    std::uint64_t cum = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ooo;
    std::uint64_t receive(std::uint64_t start, std::uint64_t end) {
      if (start <= cum) {
        cum = std::max(cum, end);
        while (!ooo.empty() && ooo.front().first <= cum) {
          cum = std::max(cum, ooo.front().second);
          ooo.erase(ooo.begin());
        }
      } else {
        auto it = std::lower_bound(
            ooo.begin(), ooo.end(), start,
            [](const auto& range, std::uint64_t s) { return range.first < s; });
        if (it == ooo.end() || it->first != start) ooo.insert(it, {start, end});
      }
      return cum;
    }
  };
  struct Capture : PacketSink {
    explicit Capture(PacketPool& pool) : pool_(pool) {}
    void receive(Packet& p) override {
      acks.push_back(p.ack_seq);
      pool_.free(&p);
    }
    std::vector<std::uint64_t> acks;
    PacketPool& pool_;
  };

  Rng rng(0x0005'1AC4'F111ULL);
  for (int round = 0; round < 20; ++round) {
    Wire wire;
    TcpParams params;
    TcpSink sink(wire.events, wire.pool, params);
    Capture capture(wire.pool);
    OwnedRoute ack_route({&capture});
    sink.set_ack_route(&ack_route);
    OneAtATime model;
    std::vector<std::uint64_t> want;
    auto deliver = [&](std::uint64_t seq, std::uint32_t size) {
      Packet* p = wire.pool.allocate();
      p->seq = seq;
      p->size_bytes = size;
      sink.receive(*p);
      want.push_back(model.receive(seq, seq + size));
    };

    // 400 MSS segments after a loss burst: segment 0 and a few others are
    // lost, the rest arrive shuffled, some twice and some followed by an
    // odd-sized overlapping retransmission; then the holes fill, in
    // increasing order on even rounds (each fill absorbs one run) and in
    // decreasing order on odd ones (the last fill absorbs every range).
    constexpr int kSegments = 400;
    constexpr std::uint32_t kMss = 1000;
    std::vector<int> order(kSegments);
    for (int i = 0; i < kSegments; ++i) order[static_cast<std::size_t>(i)] = i;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.next_below(i + 1)]);
    }
    std::vector<bool> lost(kSegments, false);
    lost[0] = true;
    for (std::uint64_t h = rng.next_below(6); h > 0; --h) {
      lost[rng.next_below(kSegments)] = true;
    }
    for (const int seg : order) {
      if (lost[static_cast<std::size_t>(seg)]) continue;
      const auto seq = static_cast<std::uint64_t>(seg) * kMss;
      deliver(seq, kMss);
      if (rng.next_below(8) == 0) deliver(seq, kMss);
      if (rng.next_below(8) == 0) {
        deliver(seq + kMss / 2,
                static_cast<std::uint32_t>(1 + rng.next_below(3 * kMss)));
      }
    }
    for (int i = 0; i < kSegments; ++i) {
      const int seg = round % 2 == 0 ? i : kSegments - 1 - i;
      if (lost[static_cast<std::size_t>(seg)]) {
        deliver(static_cast<std::uint64_t>(seg) * kMss, kMss);
      }
    }
    ASSERT_EQ(capture.acks, want) << "round " << round;
    EXPECT_GE(sink.cumulative_acked(), std::uint64_t{kSegments} * kMss);
  }
}

TEST(TcpDetails, DuplicateSegmentsDoNotConfuseReassembly) {
  Wire wire;
  TcpParams params;
  TcpSink sink(wire.events, wire.pool, params);
  struct Capture : PacketSink {
    explicit Capture(PacketPool& pool) : pool_(pool) {}
    void receive(Packet& p) override {
      last_cum = p.ack_seq;
      pool_.free(&p);
    }
    std::uint64_t last_cum = 0;
    PacketPool& pool_;
  } capture(wire.pool);
  OwnedRoute ack_route({&capture});
  sink.set_ack_route(&ack_route);

  auto inject = [&](std::uint64_t seq) {
    Packet* p = wire.pool.allocate();
    p->seq = seq;
    p->size_bytes = 1000;
    sink.receive(*p);
  };
  inject(1000);
  inject(1000);  // duplicate out-of-order segment
  inject(0);
  EXPECT_EQ(capture.last_cum, 2000u);
  inject(0);  // duplicate of delivered data
  EXPECT_EQ(capture.last_cum, 2000u);
}

TEST(TcpDetails, DctcpCutsWindowProportionally) {
  // ECN threshold low enough that a standing queue marks everything: the
  // DCTCP flow must keep cwnd bounded near the threshold region without a
  // single drop, while plain NewReno fills the buffer and drops.
  TcpParams dctcp_params;
  dctcp_params.dctcp = true;
  Wire dctcp_wire(10e9, 100 * 1500, 20 * 1500);
  auto& dctcp_src = dctcp_wire.connect(20'000'000, dctcp_params);
  dctcp_wire.events.run();
  ASSERT_TRUE(dctcp_src.complete());
  EXPECT_EQ(dctcp_wire.fwd_queue.drops(), 0u);
  EXPECT_GT(dctcp_wire.fwd_queue.ecn_marks(), 0u);

  Wire reno_wire(10e9, 100 * 1500, 0);
  auto& reno_src = reno_wire.connect(20'000'000);
  reno_wire.events.run();
  ASSERT_TRUE(reno_src.complete());
  EXPECT_GT(reno_wire.fwd_queue.drops(), 0u);
}

TEST(TcpDetails, DctcpThroughputNotCrippled) {
  TcpParams params;
  params.dctcp = true;
  Wire wire(10e9, 100 * 1500, 20 * 1500);
  auto& src = wire.connect(20'000'000, params);
  wire.events.run();
  const double seconds = units::to_seconds(src.completion_time());
  const double goodput = 20e6 * 8.0 / seconds;
  EXPECT_GT(goodput, 0.8 * 10e9);
}

TEST(MptcpDetails, PullExhaustsExactlyFlowSize) {
  EventQueue events;
  PacketPool pool;
  TcpParams params;
  MptcpConnection conn(events, pool, FlowId{1}, params, 10'000);
  EXPECT_EQ(conn.pull(4000), 4000u);
  EXPECT_EQ(conn.pull(4000), 4000u);
  EXPECT_EQ(conn.pull(4000), 2000u);  // only the remainder
  EXPECT_EQ(conn.pull(4000), 0u);
}

TEST(MptcpDetails, CompletionFiresOnceAtExactBytes) {
  EventQueue events;
  PacketPool pool;
  TcpParams params;
  MptcpConnection conn(events, pool, FlowId{1}, params, 10'000);
  int completions = 0;
  conn.set_completion_callback([&](MptcpConnection&) { ++completions; });
  conn.report_delivered(9'999);
  EXPECT_EQ(completions, 0);
  conn.report_delivered(1);
  EXPECT_EQ(completions, 1);
  conn.report_delivered(5'000);  // straggler duplicates change nothing
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(conn.complete());
}

TEST(MptcpDetails, StaggeredJoinReproducesShortFlowPenalty) {
  // With MP_JOIN staggering on, a sub-RTT flow can only use its primary
  // subflow — multipath stops helping tiny flows, the paper's §5.1.2
  // caveat. Compare against the instant-subflow default.
  auto run = [](bool staggered) {
    pnet::topo::NetworkSpec spec;
    spec.topo = pnet::topo::TopoKind::kFatTree;
    spec.type = pnet::topo::NetworkType::kParallelHomogeneous;
    spec.hosts = 16;
    spec.parallelism = 4;
    pnet::core::PolicyConfig policy;
    policy.policy = pnet::core::RoutingPolicy::kKspMultipath;
    policy.k = 4;
    sim::SimConfig sim_config;
    sim_config.tcp.mptcp_staggered_join = staggered;
    pnet::core::SimHarness h({.spec = spec, .policy = policy, .sim_config = sim_config});
    h.starter()(HostId{0}, HostId{15}, 45'000, 0, {});  // 30 packets
    h.run();
    return h.logger().fct_us().front();
  };
  const double instant = run(false);
  const double staggered = run(true);
  EXPECT_GT(staggered, instant);
}

TEST(MptcpDetails, StaggeredJoinBarelyAffectsBulkFlows) {
  auto run = [](bool staggered) {
    pnet::topo::NetworkSpec spec;
    spec.topo = pnet::topo::TopoKind::kFatTree;
    spec.type = pnet::topo::NetworkType::kParallelHomogeneous;
    spec.hosts = 16;
    spec.parallelism = 2;
    pnet::core::PolicyConfig policy;
    policy.policy = pnet::core::RoutingPolicy::kKspMultipath;
    policy.k = 2;
    sim::SimConfig sim_config;
    sim_config.tcp.mptcp_staggered_join = staggered;
    pnet::core::SimHarness h({.spec = spec, .policy = policy, .sim_config = sim_config});
    h.starter()(HostId{0}, HostId{15}, 50'000'000, 0, {});
    h.run();
    return h.logger().fct_us().front();
  };
  const double instant = run(false);
  const double staggered = run(true);
  EXPECT_NEAR(staggered, instant, 0.05 * instant);
}

TEST(MptcpDetails, LiaAlphaBoundedBySingleFlowIncrease) {
  // With one subflow, LIA must reduce to plain TCP's increase.
  EventQueue events;
  PacketPool pool;
  TcpParams params;
  MptcpConnection conn(events, pool, FlowId{1}, params, 1 << 20);
  MptcpSubflow& sf = conn.add_subflow();
  (void)sf;
  // No RTT samples yet: falls back to the uncoupled increase, which for
  // bytes_acked = mss is at most mss^2/cwnd.
  const auto inc = conn.lia_increase(conn.subflow(0), params.mss);
  EXPECT_LE(inc, static_cast<std::uint64_t>(params.mss));
  EXPECT_GE(inc, 1u);
}

}  // namespace
}  // namespace pnet::sim
