// Tests for the dynamic fault pipeline: degraded queues, the
// cable/plane failure overlay, FaultPlan/FaultInjector replay, the
// HealthMonitor detection delay, transport-level failover (path-suspect
// repath, plane-driven repath, MPTCP subflow revival), and the recovery
// statistics built on top.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/recovery.hpp"
#include "control/link_state_bus.hpp"
#include "core/harness.hpp"
#include "core/health_monitor.hpp"
#include "sim/faults.hpp"

namespace pnet {
namespace {

core::SimHarness make_harness(core::RoutingPolicy policy_kind, int k = 2) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  spec.hosts = 16;
  spec.parallelism = 2;
  core::PolicyConfig policy;
  policy.policy = policy_kind;
  policy.k = k;
  return core::SimHarness({.spec = spec, .policy = policy});
}

void degrade_whole_plane(core::SimHarness& h, int plane, double loss_rate,
                         double rate_scale = 1.0) {
  const int links = h.net().plane(plane).graph.num_links();
  for (int l = 0; l < links; l += 2) {
    h.network().set_cable_degraded(plane, LinkId{l}, loss_rate, rate_scale);
  }
}

// ------------------------------------------------------- degraded queues

TEST(DegradedLinks, FullLossRateBlackHolesLikeFailed) {
  auto h = make_harness(core::RoutingPolicy::kShortestPlane);
  h.selector().set_plane_failed(0, true);  // force flows onto plane 1
  degrade_whole_plane(h, 1, 1.0);
  h.starter()(HostId{0}, HostId{15}, 15000, 0, {});
  h.run_until(5 * units::kMillisecond);
  EXPECT_TRUE(h.logger().records().empty());
  EXPECT_GT(h.network().total_drops(), 0u);
  // And the drops are attributed to the random-loss cause, not tail drops.
  std::uint64_t random = 0;
  std::uint64_t failed = 0;
  for (int l = 0; l < h.net().plane(1).graph.num_links(); ++l) {
    random += h.network().queue(1, LinkId{l}).drops_random();
    failed += h.network().queue(1, LinkId{l}).drops_failed();
  }
  EXPECT_GT(random, 0u);
  EXPECT_EQ(failed, 0u);
}

TEST(DegradedLinks, PartialLossRetransmitsButCompletes) {
  auto h = make_harness(core::RoutingPolicy::kShortestPlane);
  h.selector().set_plane_failed(0, true);
  // 1% per queue compounds to ~10% per round trip over the ~12 queues of a
  // core path + its ACKs — harsh but survivable for NewReno.
  degrade_whole_plane(h, 1, 0.01);
  h.starter()(HostId{0}, HostId{15}, 500 * units::kKB, 0, {});
  h.run_until(10 * units::kSecond);
  ASSERT_EQ(h.logger().records().size(), 1u);
  EXPECT_GT(h.logger().total_retransmits(), 0);
}

TEST(DegradedLinks, ReducedServiceRateSlowsTheFlow) {
  auto fct = [](double rate_scale) {
    auto h = make_harness(core::RoutingPolicy::kShortestPlane);
    h.selector().set_plane_failed(1, true);
    degrade_whole_plane(h, 0, 0.0, rate_scale);
    h.starter()(HostId{0}, HostId{15}, 1 * units::kMB, 0, {});
    h.run();
    return h.logger().fct_us().front();
  };
  const double healthy = fct(1.0);
  const double degraded = fct(0.5);
  EXPECT_GT(degraded, 1.5 * healthy);
  EXPECT_LT(degraded, 3.0 * healthy);
}

TEST(DegradedLinks, RestoreClearsLossAndRate) {
  auto h = make_harness(core::RoutingPolicy::kShortestPlane);
  h.network().set_cable_degraded(0, LinkId{0}, 0.3, 0.5);
  EXPECT_DOUBLE_EQ(h.network().queue(0, LinkId{0}).loss_rate(), 0.3);
  EXPECT_DOUBLE_EQ(h.network().queue(0, LinkId{1}).rate_scale(), 0.5);
  h.network().set_cable_degraded(0, LinkId{0}, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(h.network().queue(0, LinkId{0}).loss_rate(), 0.0);
  EXPECT_DOUBLE_EQ(h.network().queue(0, LinkId{1}).rate_scale(), 1.0);
}

// ------------------------------------------------- cable/plane overlay

TEST(FailureOverlay, CableFailureIsSymmetricAndIdempotent) {
  auto h = make_harness(core::RoutingPolicy::kShortestPlane);
  const LinkId link{40};
  const LinkId rev = h.net().plane(0).graph.reverse(link);
  h.network().set_cable_failed(0, link, true);
  EXPECT_TRUE(h.network().cable_failed(0, link));
  EXPECT_TRUE(h.network().cable_failed(0, rev));
  EXPECT_EQ(h.network().cable_fail_transitions(), 1);

  h.network().set_cable_failed(0, rev, true);  // duplicate, via the twin
  EXPECT_EQ(h.network().cable_fail_transitions(), 1);

  h.network().set_cable_failed(0, rev, false);
  EXPECT_FALSE(h.network().cable_failed(0, link));
  h.network().set_cable_failed(0, link, false);  // duplicate recover
  EXPECT_EQ(h.network().cable_fail_transitions(), 1);
}

TEST(FailureOverlay, PlaneRecoveryDoesNotResurrectFailedCable) {
  auto h = make_harness(core::RoutingPolicy::kShortestPlane);
  const LinkId link{40};
  h.network().set_cable_failed(0, link, true);
  h.network().set_plane_failed(0, true);
  h.network().set_plane_failed(0, false);
  EXPECT_TRUE(h.network().cable_failed(0, link));
  EXPECT_TRUE(h.network().queue(0, link).failed());
  // Other links of the plane did come back.
  EXPECT_FALSE(h.network().queue(0, LinkId{0}).failed());
  h.network().set_cable_failed(0, link, false);
  EXPECT_FALSE(h.network().queue(0, link).failed());
}

TEST(FailureOverlay, RepeatedPlaneFlapsCountTransitions) {
  auto h = make_harness(core::RoutingPolicy::kShortestPlane);
  for (int i = 0; i < 3; ++i) {
    h.network().set_plane_failed(1, true);
    h.network().set_plane_failed(1, true);  // redundant
    h.network().set_plane_failed(1, false);
  }
  EXPECT_EQ(h.network().plane_fail_transitions(), 3);
  EXPECT_FALSE(h.network().plane_failed(1));
}

// ------------------------------------------------------- fault injector

TEST(FaultInjector, AppliesPlanAtScheduledTimes) {
  auto h = make_harness(core::RoutingPolicy::kRoundRobin);
  sim::FaultInjector injector(h.events(), h.network());
  sim::FaultPlan plan;
  plan.flap_plane(units::kMillisecond, units::kMillisecond, 1);
  injector.arm(plan);
  EXPECT_EQ(injector.events_pending(), 2);

  h.run_until(1500 * units::kMicrosecond);
  EXPECT_TRUE(h.network().plane_failed(1));
  h.run_until(3 * units::kMillisecond);
  EXPECT_FALSE(h.network().plane_failed(1));
  ASSERT_EQ(injector.applied().size(), 2u);
  EXPECT_EQ(injector.applied()[0].event.kind, sim::FaultKind::kPlaneFail);
  EXPECT_EQ(injector.applied()[1].event.kind, sim::FaultKind::kPlaneRecover);
  EXPECT_EQ(injector.events_pending(), 0);
}

TEST(FaultInjector, SeededPlansReplayIdentically) {
  auto plan_events = [](std::uint64_t seed) {
    auto h = make_harness(core::RoutingPolicy::kRoundRobin);
    auto plan = sim::FaultPlan::random_link_flaps(
        h.net(), 4, units::kMillisecond, 10 * units::kMillisecond,
        4 * units::kMillisecond, units::kMillisecond, seed);
    return plan.events();
  };
  const auto a = plan_events(7);
  const auto b = plan_events(7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].plane, b[i].plane);
    EXPECT_EQ(a[i].link.v, b[i].link.v);
  }
  EXPECT_FALSE(a.empty());
}

// Two end-to-end runs of the same seeded fault schedule against the same
// workload must be bit-identical: same flow log, same drop totals.
TEST(FaultInjector, EndToEndRunsAreDeterministic) {
  auto run = [] {
    auto h = make_harness(core::RoutingPolicy::kRoundRobin);
    core::HealthMonitor monitor(h.events(),
                                {.detect_delay = 100 * units::kMicrosecond});
    monitor.add_selector(h.selector());
    monitor.set_factory(h.factory());
    h.selector().enable_repath(h.factory());
    sim::FaultInjector injector(h.events(), h.network());
    control::LinkStateBus bus;
    bus.subscribe_health_monitor(monitor);
    bus.attach(injector);
    auto plan = sim::FaultPlan::random_link_flaps(
        h.net(), 3, 100 * units::kMicrosecond, 5 * units::kMillisecond,
        2 * units::kMillisecond, 500 * units::kMicrosecond, 99);
    plan.merge(sim::FaultPlan::random_degraded_links(
        h.net(), 3, 200 * units::kMicrosecond, 5 * units::kMillisecond, 0.05,
        1.0, 77));
    plan.flap_plane(units::kMillisecond, 2 * units::kMillisecond, 1);
    injector.arm(plan);
    for (int i = 0; i < 16; ++i) {
      h.starter()(HostId{i}, HostId{15 - i}, 200 * units::kKB,
                  (i % 4) * 100 * units::kMicrosecond, {});
    }
    h.run_until(5 * units::kSecond);
    std::ostringstream csv;
    h.logger().write_csv(csv);
    return std::make_pair(csv.str(), h.network().total_drops());
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  EXPECT_GT(first.second, 0u);  // the faults actually bit
}

// ------------------------------------------------------- health monitor

TEST(HealthMonitor, DetectionWaitsForPropagationDelay) {
  auto h = make_harness(core::RoutingPolicy::kRoundRobin);
  core::HealthMonitor monitor(h.events(),
                              {.detect_delay = 5 * units::kMillisecond});
  monitor.add_selector(h.selector());
  sim::FaultInjector injector(h.events(), h.network());
  control::LinkStateBus bus;
  bus.subscribe_health_monitor(monitor);
  bus.attach(injector);
  sim::FaultPlan plan;
  plan.fail_plane(units::kMillisecond, 1);
  injector.arm(plan);

  h.run_until(4 * units::kMillisecond);
  // Fault applied, but the hosts have not heard yet.
  EXPECT_TRUE(h.network().plane_failed(1));
  EXPECT_TRUE(monitor.detections().empty());
  EXPECT_TRUE(h.selector().plane_usable(1));

  h.run_until(7 * units::kMillisecond);
  ASSERT_EQ(monitor.detections().size(), 1u);
  EXPECT_EQ(monitor.detections().front().second, 6 * units::kMillisecond);
  EXPECT_FALSE(h.selector().plane_usable(1));
}

TEST(HealthMonitor, RecoveryReenablesPlane) {
  auto h = make_harness(core::RoutingPolicy::kRoundRobin);
  core::HealthMonitor monitor(h.events(),
                              {.detect_delay = units::kMicrosecond});
  monitor.add_selector(h.selector());
  sim::FaultInjector injector(h.events(), h.network());
  control::LinkStateBus bus;
  bus.subscribe_health_monitor(monitor);
  bus.attach(injector);
  sim::FaultPlan plan;
  plan.flap_plane(units::kMillisecond, units::kMillisecond, 1);
  injector.arm(plan);
  h.run_until(10 * units::kMillisecond);
  EXPECT_EQ(monitor.detections().size(), 2u);
  EXPECT_TRUE(h.selector().plane_usable(1));
}

// ------------------------------------------------------------- failover

// A whole plane dies while flows ride it. With detection + repath enabled
// every flow finishes by moving to the surviving plane; nothing hangs.
TEST(Failover, InFlightFlowsFinishViaRepath) {
  auto h = make_harness(core::RoutingPolicy::kRoundRobin);
  core::HealthMonitor monitor(h.events(),
                              {.detect_delay = 10 * units::kMicrosecond});
  monitor.add_selector(h.selector());
  monitor.set_factory(h.factory());
  h.selector().enable_repath(h.factory());
  sim::FaultInjector injector(h.events(), h.network());
  control::LinkStateBus bus;
  bus.subscribe_health_monitor(monitor);
  bus.attach(injector);
  sim::FaultPlan plan;
  plan.fail_plane(50 * units::kMicrosecond, 1);  // and never recovers
  injector.arm(plan);

  for (int i = 0; i < 8; ++i) {
    h.starter()(HostId{i}, HostId{15 - i}, 1 * units::kMB, 0, {});
  }
  h.run_until(10 * units::kSecond);
  EXPECT_EQ(h.logger().records().size(), 8u);
  EXPECT_TRUE(h.factory().incomplete_tcp_flows().empty());
  int repaths = 0;
  for (const auto& r : h.logger().records()) repaths += r.repaths;
  EXPECT_GT(repaths, 0);  // round-robin put some flows on the dead plane
}

// Without any host-side detection, consecutive RTOs alone must move a flow
// off its dead path (the transport-level path-suspect reaction — the only
// defense for mid-fabric faults invisible to link status).
TEST(Failover, ConsecutiveRtosTriggerPathSuspectRepath) {
  auto h = make_harness(core::RoutingPolicy::kRoundRobin);
  h.selector().enable_repath(h.factory());
  // Pin the first flow onto plane 1, then break plane 1 under it. The
  // selector is never told: only the RTO machinery can save the flow.
  h.selector().set_plane_failed(0, true);
  h.starter()(HostId{0}, HostId{15}, 500 * units::kKB, 0, {});
  h.selector().set_plane_failed(0, false);
  h.network().set_plane_failed(1, true);

  h.run_until(30 * units::kSecond);
  ASSERT_EQ(h.logger().records().size(), 1u);
  const auto& record = h.logger().records().front();
  EXPECT_GE(record.repaths, 1);
  EXPECT_GE(record.timeouts,
            h.network().config().tcp.path_suspect_threshold);
}

// The plane comes back while the flow sits in RTO backoff; the next
// retransmission finds a healthy path and the flow completes (no repath
// machinery involved at all).
TEST(Failover, RecoveryDuringRtoBackoffCompletes) {
  auto h = make_harness(core::RoutingPolicy::kShortestPlane);
  h.selector().set_plane_failed(0, true);  // flow rides plane 1
  sim::FaultInjector injector(h.events(), h.network());
  sim::FaultPlan plan;
  // 10 MB at ~50 Gb/s lasts ~1.6 ms, so the 100 us fault catches it in
  // flight; the 50 ms outage spans several backed-off RTOs.
  plan.flap_plane(100 * units::kMicrosecond, 50 * units::kMillisecond, 1);
  injector.arm(plan);
  h.starter()(HostId{0}, HostId{15}, 10 * units::kMB, 0, {});
  h.run_until(30 * units::kSecond);
  ASSERT_EQ(h.logger().records().size(), 1u);
  EXPECT_GT(h.logger().records().front().timeouts, 0);
}

// An MPTCP connection abandons its subflow on a failed plane and
// re-establishes it when the plane recovers mid-transfer.
TEST(Failover, MptcpSubflowRevivesOnPlaneRecovery) {
  auto h = make_harness(core::RoutingPolicy::kKspMultipath, 2);
  core::HealthMonitor monitor(h.events(),
                              {.detect_delay = 10 * units::kMicrosecond});
  monitor.add_selector(h.selector());
  monitor.set_factory(h.factory());
  sim::FaultInjector injector(h.events(), h.network());
  control::LinkStateBus bus;
  bus.subscribe_health_monitor(monitor);
  bus.attach(injector);
  sim::FaultPlan plan;
  plan.flap_plane(units::kMillisecond, 4 * units::kMillisecond, 1);
  injector.arm(plan);

  const std::uint64_t bytes = 50 * units::kMB;
  h.starter()(HostId{0}, HostId{15}, bytes, 0, {});
  h.run_until(60 * units::kSecond);
  ASSERT_EQ(h.logger().records().size(), 1u);
  EXPECT_GT(h.logger().records().front().subflows, 1);
  EXPECT_GE(h.factory().total_delivered_bytes(), bytes);
  EXPECT_TRUE(h.factory().incomplete_mptcp_flows().empty());
}

// ------------------------------------------------------ recovery stats

TEST(RecoveryStats, PlaneEpisodesPairFailAndRecover) {
  using sim::FaultKind;
  std::vector<sim::FaultInjector::AppliedEvent> applied;
  applied.push_back({{units::kMillisecond, FaultKind::kPlaneFail, 1}, 100});
  applied.push_back(
      {{2 * units::kMillisecond, FaultKind::kCableFail, 0, LinkId{4}}, 120});
  applied.push_back(
      {{3 * units::kMillisecond, FaultKind::kPlaneRecover, 1}, 150});
  applied.push_back({{5 * units::kMillisecond, FaultKind::kPlaneFail, 0}, 160});

  std::vector<std::pair<sim::FaultEvent, SimTime>> detections;
  detections.emplace_back(applied[0].event, units::kMillisecond + 500000);

  const auto episodes = analysis::plane_episodes(applied, detections);
  ASSERT_EQ(episodes.size(), 2u);
  EXPECT_EQ(episodes[0].plane, 1);
  EXPECT_EQ(episodes[0].fail_at, units::kMillisecond);
  EXPECT_EQ(episodes[0].recover_at, 3 * units::kMillisecond);
  EXPECT_EQ(episodes[0].packets_lost, 50u);
  EXPECT_EQ(episodes[0].detected_at, units::kMillisecond + 500000);
  // The second episode never recovered: open-ended, loss unknown.
  EXPECT_EQ(episodes[1].plane, 0);
  EXPECT_EQ(episodes[1].recover_at, -1);
  EXPECT_EQ(episodes[1].detected_at, -1);
}

TEST(RecoveryStats, AnalyzeEpisodeFindsDipAndRecoveryTime) {
  std::vector<telemetry::Sampler::Sample> samples;
  const SimTime ms = units::kMillisecond;
  samples.push_back({1 * ms, 100e9});
  samples.push_back({2 * ms, 10e9});   // outage
  samples.push_back({3 * ms, 20e9});   // outage
  samples.push_back({4 * ms, 95e9});   // recovered
  analysis::FaultEpisode episode;
  episode.fail_at = 1 * ms;
  episode.recover_at = 3 * ms;
  episode.detected_at = 1 * ms + 200000;
  episode.packets_lost = 42;

  const auto report = analysis::analyze_episode(samples, episode, 0.9);
  EXPECT_DOUBLE_EQ(report.baseline_goodput_bps, 100e9);
  EXPECT_DOUBLE_EQ(report.dip_goodput_bps, 10e9);
  EXPECT_EQ(report.time_to_detect, 200000);
  EXPECT_EQ(report.time_to_recover, 3 * ms);
  EXPECT_EQ(report.packets_lost, 42u);
}

TEST(RecoveryStats, GoodputProbeIntegratesDeliveredBytes) {
  auto h = make_harness(core::RoutingPolicy::kRoundRobin);
  analysis::GoodputProbe probe(
      h.events(), [&h] { return h.factory().total_delivered_bytes(); },
      100 * units::kMicrosecond, 20 * units::kMillisecond);
  probe.start(0);
  for (int i = 0; i < 4; ++i) {
    h.starter()(HostId{i}, HostId{15 - i}, 1 * units::kMB, 0, {});
  }
  h.run();
  ASSERT_FALSE(probe.samples().empty());
  double integrated_bits = 0.0;
  for (const auto& s : probe.samples()) {
    integrated_bits += s.value * units::to_seconds(probe.bucket_width());
  }
  EXPECT_NEAR(integrated_bits / 8.0,
              static_cast<double>(h.factory().total_delivered_bytes()),
              1024.0);
  // The probe kept the grid alive through the full horizon.
  EXPECT_EQ(probe.samples().back().t_end, 20 * units::kMillisecond);
}

// Shorter detection delay must not lengthen recovery: sweep the delay and
// check time-to-recover is monotone non-decreasing in it.
TEST(RecoveryStats, RecoveryTimeShrinksWithFasterDetection) {
  auto time_to_recover = [](SimTime detect_delay) {
    auto h = make_harness(core::RoutingPolicy::kRoundRobin);
    core::HealthMonitor monitor(h.events(), {.detect_delay = detect_delay});
    monitor.add_selector(h.selector());
    monitor.set_factory(h.factory());
    h.selector().enable_repath(h.factory());
    sim::FaultInjector injector(h.events(), h.network());
    control::LinkStateBus bus;
    bus.subscribe_health_monitor(monitor);
    bus.attach(injector);
    sim::FaultPlan plan;
    plan.flap_plane(10 * units::kMillisecond, 30 * units::kMillisecond, 1);
    injector.arm(plan);
    analysis::GoodputProbe probe(
        h.events(), [&h] { return h.factory().total_delivered_bytes(); },
        units::kMillisecond, 50 * units::kMillisecond);
    probe.start(0);
    // 1 GB flows outlive the probe window, so goodput never decays from
    // flows simply finishing; 8 distinct pairs leave fabric headroom on
    // the surviving plane after everyone crowds onto it.
    for (int i = 0; i < 8; ++i) {
      h.starter()(HostId{i}, HostId{15 - i}, 1 * units::kGB, 0, {});
    }
    h.run_until(50 * units::kMillisecond);
    const auto episodes =
        analysis::plane_episodes(injector.applied(), monitor.detections());
    const auto report = analysis::analyze_episode(probe.samples(),
                                                  episodes.front(), 0.6);
    return report.time_to_recover;
  };
  const SimTime fast = time_to_recover(0);
  const SimTime medium = time_to_recover(5 * units::kMillisecond);
  const SimTime slow = time_to_recover(15 * units::kMillisecond);
  ASSERT_GE(fast, 0);
  ASSERT_GE(medium, 0);
  ASSERT_GE(slow, 0);
  EXPECT_LE(fast, medium);
  EXPECT_LE(medium, slow);
  EXPECT_LT(fast, slow);  // the sweep must actually separate the extremes
}

}  // namespace
}  // namespace pnet
