// Tests for the adaptive control plane (src/control) and the API redesigns
// that carry it: the string-keyed registries every layer resolves names
// through, the Sampler's bounded read() pull API, the LinkStateBus single
// subscription point, the Controller's decision rules against a scripted
// dataplane, end-to-end evacuation of a dead plane under a fault storm,
// and the two determinism contracts — controller-on reports byte-identical
// across --threads / --sim-threads, controller-off runs byte-identical to
// specs and runners that predate the field.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "control/dataplanes.hpp"
#include "control/link_state_bus.hpp"
#include "core/harness.hpp"
#include "core/health_monitor.hpp"
#include "core/path_selector.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "fsim/fluid.hpp"
#include "sim/faults.hpp"
#include "telemetry/sampler.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workload/patterns.hpp"

namespace pnet {
namespace {

// ------------------------------------------------------------- registries

std::vector<std::string> split_names(const std::string& names) {
  std::vector<std::string> out;
  std::string word;
  for (const char c : names) {
    if (c == ' ') {
      if (!word.empty()) out.push_back(word);
      word.clear();
    } else {
      word += c;
    }
  }
  if (!word.empty()) out.push_back(word);
  return out;
}

TEST(Registries, PolicyNamesRoundTripAndUnknownFailsFast) {
  const auto names = split_names(core::policy_names());
  EXPECT_GE(names.size(), 3u);
  for (const auto& name : names) {
    const auto policy = core::policy_from_string(name);
    ASSERT_TRUE(policy.has_value()) << name;
    EXPECT_EQ(core::to_string(*policy), name);
  }
  EXPECT_FALSE(core::policy_from_string("no-such-policy").has_value());
  EXPECT_FALSE(core::policy_from_string("").has_value());
}

TEST(Registries, SchemeNamesRoundTripAndUnknownFailsFast) {
  const auto names = split_names(fsim::scheme_names());
  EXPECT_GE(names.size(), 3u);
  for (const auto& name : names) {
    const auto scheme = fsim::scheme_from_string(name);
    ASSERT_TRUE(scheme.has_value()) << name;
    EXPECT_EQ(fsim::to_string(*scheme), name);
  }
  EXPECT_FALSE(fsim::scheme_from_string("no-such-scheme").has_value());
}

TEST(Registries, EngineNamesRoundTripAndUnknownFailsFast) {
  const auto names = split_names(exp::engine_names());
  EXPECT_GE(names.size(), 3u);
  for (const auto& name : names) {
    const auto engine = exp::engine_from_string(name);
    ASSERT_TRUE(engine.has_value()) << name;
    EXPECT_EQ(exp::to_string(*engine), name);
  }
  EXPECT_FALSE(exp::engine_from_string("no-such-engine").has_value());
}

TEST(Registries, ModeNamesRoundTripAndUnknownFailsFast) {
  const auto names = split_names(control::mode_names());
  ASSERT_EQ(names.size(), 3u);
  for (const auto& name : names) {
    const auto mode = control::mode_from_string(name);
    ASSERT_TRUE(mode.has_value()) << name;
    EXPECT_EQ(control::to_string(*mode), name);
  }
  EXPECT_FALSE(control::mode_from_string("no-such-mode").has_value());
  EXPECT_EQ(*control::mode_from_string("off"), control::ControllerMode::kOff);
  EXPECT_EQ(*control::mode_from_string("centralized"),
            control::ControllerMode::kCentralized);
}

// ----------------------------------------------------------- sampler read

TEST(SamplerRead, BoundedMostRecentAndWatermarkFiltered) {
  telemetry::Sampler sampler({units::kMillisecond, 512});
  double gauge = 0.0;
  const std::size_t series = sampler.add_series(
      "depth", telemetry::Sampler::Kind::kGauge, [&] { return gauge; });
  sampler.start(0);
  for (int i = 1; i <= 6; ++i) {
    gauge = static_cast<double>(i);
    sampler.advance(i * units::kMillisecond);
  }

  // max_points keeps only the most recent buckets, visited oldest first.
  std::vector<double> seen;
  const std::size_t n =
      sampler.read(series, 0, 3, [&](const telemetry::Sampler::Sample& s) {
        seen.push_back(s.value);
      });
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(seen, (std::vector<double>{4.0, 5.0, 6.0}));

  // The watermark is strict: buckets ending at `after` are not re-delivered.
  seen.clear();
  SimTime last = 0;
  sampler.read(series, 4 * units::kMillisecond, 100,
               [&](const telemetry::Sampler::Sample& s) {
                 seen.push_back(s.value);
                 last = s.t_end;
               });
  EXPECT_EQ(seen, (std::vector<double>{5.0, 6.0}));

  // The watermark idiom: reading again from the last seen end visits
  // nothing until a new bucket lands.
  EXPECT_EQ(sampler.read(series, last, 100,
                         [](const telemetry::Sampler::Sample&) {}),
            0u);
  gauge = 7.0;
  sampler.advance(7 * units::kMillisecond);
  EXPECT_EQ(sampler.read(series, last, 100,
                         [](const telemetry::Sampler::Sample&) {}),
            1u);
}

TEST(SamplerRead, UnknownSeriesAndUnstartedSamplerReadZero) {
  telemetry::Sampler sampler({units::kMillisecond, 512});
  sampler.add_series("a", telemetry::Sampler::Kind::kGauge,
                     [] { return 1.0; });
  const auto nop = [](const telemetry::Sampler::Sample&) {};
  EXPECT_EQ(sampler.read("missing", 0, 10, nop), 0u);
  EXPECT_EQ(sampler.read("a", 0, 10, nop), 0u);  // never started
}

// ---------------------------------------------------------- LinkStateBus

TEST(LinkStateBus, FansOutInSubscriptionOrderAndCounts) {
  control::LinkStateBus bus;
  std::vector<std::string> order;
  bus.subscribe([&](const sim::FaultEvent& e) {
    order.push_back("a" + std::to_string(e.plane));
  });
  bus.subscribe([&](const sim::FaultEvent& e) {
    order.push_back("b" + std::to_string(e.plane));
  });
  EXPECT_EQ(bus.num_observers(), 2u);

  sim::FaultEvent fail;
  fail.kind = sim::FaultKind::kPlaneFail;
  fail.plane = 0;
  bus.publish(fail);
  fail.plane = 1;
  bus.publish(fail);
  EXPECT_EQ(bus.published(), 2u);
  EXPECT_EQ(order, (std::vector<std::string>{"a0", "b0", "a1", "b1"}));
}

TEST(LinkStateBus, ForwardsInjectorEventsToHealthMonitor) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  spec.hosts = 8;
  spec.parallelism = 2;
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kRoundRobin;
  core::SimHarness h({.spec = spec, .policy = policy});

  core::HealthMonitor monitor(h.events(),
                              {.detect_delay = units::kMillisecond});
  sim::FaultInjector injector(h.events(), h.network());
  control::LinkStateBus bus;
  bus.subscribe_health_monitor(monitor);
  bus.attach(injector);

  sim::FaultPlan plan;
  plan.flap_plane(units::kMillisecond, 2 * units::kMillisecond, 0);
  injector.arm(plan);
  h.run_until(10 * units::kMillisecond);

  // Fail + recover both crossed the bus and landed as detections after the
  // monitor's own delay.
  EXPECT_EQ(bus.published(), 2u);
  ASSERT_EQ(monitor.detections().size(), 2u);
  EXPECT_EQ(monitor.detections()[0].first.kind, sim::FaultKind::kPlaneFail);
  EXPECT_EQ(monitor.detections()[0].second, 2 * units::kMillisecond);
  EXPECT_EQ(monitor.detections()[1].first.kind,
            sim::FaultKind::kPlaneRecover);
}

// ------------------------------------------------- controller decisions

/// Scripted dataplane: the test sets the observable state by hand and
/// records every actuation the controller makes.
class FakeDataplane : public control::Dataplane {
 public:
  explicit FakeDataplane(int planes) : bytes_(planes, 0.0) {}

  [[nodiscard]] int num_planes() const override {
    return static_cast<int>(bytes_.size());
  }
  [[nodiscard]] double plane_bytes(int plane) const override {
    return bytes_[static_cast<std::size_t>(plane)];
  }
  [[nodiscard]] double plane_queue_bytes(int) const override { return 0.0; }
  [[nodiscard]] std::uint64_t route_invalidations() const override {
    return invalidations_;
  }
  void on_plane_detected(int plane, bool down) override {
    detected_.emplace_back(plane, down);
  }
  void set_plane_weights(const std::vector<double>& weights) override {
    weights_ = weights;
  }
  int repin(int from, int to, int max_flows) override {
    repin_calls_.push_back({from, to, max_flows});
    return moved_per_call_;
  }

  std::vector<double> bytes_;
  std::uint64_t invalidations_ = 0;
  int moved_per_call_ = 2;
  std::vector<std::pair<int, bool>> detected_;
  std::vector<double> weights_;
  struct RepinCall {
    int from, to, max_flows;
  };
  std::vector<RepinCall> repin_calls_;
};

control::ControllerConfig centralized_config() {
  control::ControllerConfig cc;
  cc.mode = control::ControllerMode::kCentralized;
  cc.cadence = units::kMillisecond;
  cc.detect_delay = units::kMillisecond;
  return cc;
}

TEST(Controller, ActsOnPlaneEventsOnlyAfterDetectDelay) {
  FakeDataplane dp(2);
  control::Controller ctl(centralized_config(), dp);
  ctl.start(0);

  sim::FaultEvent fail;
  fail.at = units::kMillisecond;
  fail.kind = sim::FaultKind::kPlaneFail;
  fail.plane = 0;
  ctl.on_fabric_event(fail);

  // Due at 2 ms: the 1 ms tick must not act yet.
  ctl.tick(units::kMillisecond);
  EXPECT_TRUE(ctl.plane_usable(0));
  EXPECT_TRUE(dp.detected_.empty());

  ctl.tick(2 * units::kMillisecond);
  EXPECT_FALSE(ctl.plane_usable(0));
  ASSERT_EQ(dp.detected_.size(), 1u);
  EXPECT_EQ(dp.detected_[0], (std::pair<int, bool>{0, true}));
  EXPECT_EQ(ctl.plane_events(), 1u);
  // Dead planes weigh zero in the placement bias.
  ASSERT_EQ(dp.weights_.size(), 2u);
  EXPECT_EQ(dp.weights_[0], 0.0);
  EXPECT_GT(dp.weights_[1], 0.0);

  sim::FaultEvent recover = fail;
  recover.at = 3 * units::kMillisecond;
  recover.kind = sim::FaultKind::kPlaneRecover;
  ctl.on_fabric_event(recover);
  ctl.tick(4 * units::kMillisecond);
  EXPECT_TRUE(ctl.plane_usable(0));
  EXPECT_EQ(ctl.plane_events(), 2u);
}

TEST(Controller, RebalancesHotToColdThenHoldsTheCooldown) {
  FakeDataplane dp(2);
  const auto cc = centralized_config();
  control::Controller ctl(cc, dp);
  ctl.start(0);

  // Plane 0 moves 100 MB per cadence, plane 1 is idle: far past the
  // imbalance threshold from the first sampled bucket on.
  dp.bytes_[0] += 100e6;
  ctl.tick(units::kMillisecond);
  ASSERT_EQ(dp.repin_calls_.size(), 1u);
  EXPECT_EQ(dp.repin_calls_[0].from, 0);
  EXPECT_EQ(dp.repin_calls_[0].to, 1);
  EXPECT_EQ(dp.repin_calls_[0].max_flows, cc.max_repins_per_tick);
  EXPECT_EQ(ctl.repins(), 2u);  // the fake reports 2 flows moved

  // Still imbalanced, but the cooldown holds until the sampling window
  // refills with post-move load (window x cadence later).
  for (int t = 2; t <= cc.window; ++t) {
    dp.bytes_[0] += 100e6;
    ctl.tick(t * units::kMillisecond);
    EXPECT_EQ(dp.repin_calls_.size(), 1u) << "tick " << t;
  }
  dp.bytes_[0] += 100e6;
  ctl.tick((cc.window + 1) * units::kMillisecond);
  EXPECT_EQ(dp.repin_calls_.size(), 2u);
}

TEST(Controller, ChurnGuardSkipsRebalanceWhileRoutesMove) {
  FakeDataplane dp(2);
  control::Controller ctl(centralized_config(), dp);
  ctl.start(0);

  for (int t = 1; t <= 3; ++t) {
    dp.bytes_[0] += 100e6;      // hot plane 0 every tick
    ++dp.invalidations_;        // ...but the route cache is churning
    ctl.tick(t * units::kMillisecond);
  }
  EXPECT_TRUE(dp.repin_calls_.empty());
  EXPECT_EQ(ctl.churn_skips(), 3u);

  // Churn stops; the very next tick rebalances.
  dp.bytes_[0] += 100e6;
  ctl.tick(4 * units::kMillisecond);
  EXPECT_EQ(dp.repin_calls_.size(), 1u);
}

// ------------------------------------------- evacuation under fault storm

TEST(ControlLoop, EvacuatesDeadPlanesUnderFaultStorm) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  spec.hosts = 8;
  spec.parallelism = 4;
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kRoundRobin;
  core::SimHarness h({.spec = spec, .policy = policy});
  h.selector().enable_repath(h.factory());

  core::HealthMonitor monitor(h.events(),
                              {.detect_delay = units::kMillisecond});
  monitor.add_selector(h.selector());
  monitor.set_factory(h.factory());
  sim::FaultInjector injector(h.events(), h.network());
  control::LinkStateBus bus;
  bus.subscribe_health_monitor(monitor);
  bus.attach(injector);

  const auto cc = centralized_config();
  control::PacketDataplane dataplane(h);
  control::Controller ctl(cc, dataplane);
  ctl.observe(bus);
  control::ControlDriver driver(h, ctl, cc.cadence);
  driver.start(h.events().now());

  // A storm of overlapping plane flaps: 0 and 2 go down close together.
  sim::FaultPlan plan;
  plan.flap_plane(5 * units::kMillisecond, 10 * units::kMillisecond, 0);
  plan.flap_plane(7 * units::kMillisecond, 10 * units::kMillisecond, 2);
  injector.arm(plan);

  // Long bulk flows on every host so there is always something to move.
  Rng rng(1);
  for (const auto& [src, dst] :
       workload::permutation_pairs(h.net().num_hosts(), rng)) {
    h.starter()(src, dst, 100 * units::kGB, 0, {});
  }

  // Both planes down and confirmed (detect_delay + a tick of slack): no
  // live flow may still ride either dead plane.
  h.run_until(10 * units::kMillisecond);
  EXPECT_FALSE(ctl.plane_usable(0));
  EXPECT_FALSE(ctl.plane_usable(2));
  for (const int plane : h.factory().live_tcp_planes()) {
    EXPECT_NE(plane, 0);
    EXPECT_NE(plane, 2);
  }
  EXPECT_GT(ctl.plane_events(), 0u);

  // After both recoveries are confirmed the controller marks them usable
  // again (flows return via load balancing, not by force).
  h.run_until(25 * units::kMillisecond);
  EXPECT_TRUE(ctl.plane_usable(0));
  EXPECT_TRUE(ctl.plane_usable(2));
  h.finalize(h.events().now());
}

// ----------------------------------------------- determinism: controller on

exp::ExperimentSpec small_spec(exp::EngineKind engine,
                               control::ControllerMode mode) {
  exp::ExperimentSpec spec;
  spec.name = "ctl";
  spec.engine = engine;
  spec.topo.topo = topo::TopoKind::kFatTree;
  spec.topo.type = topo::NetworkType::kParallelHomogeneous;
  spec.topo.hosts = 8;
  spec.topo.parallelism = 2;
  spec.policy.policy = core::RoutingPolicy::kRoundRobin;
  spec.workload.flow_bytes = 200'000;
  spec.seed = 7;
  spec.trials = 2;
  spec.controller.mode = mode;
  return spec;
}

std::string run_report_json(const exp::ExperimentSpec& spec, int threads,
                            int sim_threads) {
  exp::Runner runner(threads);
  runner.set_sim_threads(sim_threads);
  exp::Report report("control-determinism");
  for (auto& cell : runner.run({{spec, {}}})) report.add(std::move(cell));
  return report.to_json(/*with_runtime=*/false);
}

TEST(ControllerDeterminism, PacketReportByteIdenticalAcrossWorkerCounts) {
  const auto spec = small_spec(exp::EngineKind::kPacket,
                               control::ControllerMode::kCentralized);
  const std::string base = run_report_json(spec, 1, 1);
  EXPECT_NE(base.find("\"controller\""), std::string::npos);
  EXPECT_NE(base.find("\"ctl/ticks\""), std::string::npos);
  EXPECT_EQ(base, run_report_json(spec, 4, 1));  // runner threads
  EXPECT_EQ(base, run_report_json(spec, 1, 4));  // shard workers
  EXPECT_EQ(base, run_report_json(spec, 4, 4));  // both parallel
}

TEST(ControllerDeterminism, FsimReportByteIdenticalAcrossThreads) {
  const auto spec = small_spec(exp::EngineKind::kFsim,
                               control::ControllerMode::kCentralized);
  const std::string base = run_report_json(spec, 1, 0);
  EXPECT_NE(base.find("\"controller\""), std::string::npos);
  EXPECT_NE(base.find("\"ctl/ticks\""), std::string::npos);
  EXPECT_EQ(base, run_report_json(spec, 4, 0));
  EXPECT_EQ(base, run_report_json(spec, 1, 0));
}

// --------------------------------------------- determinism: controller off

TEST(ControllerOff, SpecSerializesNothingNewWhenOff) {
  const auto off = small_spec(exp::EngineKind::kPacket,
                              control::ControllerMode::kOff);
  EXPECT_EQ(off.canonical_json().find("controller"), std::string::npos);

  auto on = off;
  on.controller.mode = control::ControllerMode::kHostLocal;
  EXPECT_NE(on.canonical_json().find("\"controller\""), std::string::npos);
  EXPECT_NE(off.hash(), on.hash());
}

TEST(ControllerOff, ReportsMatchRunnersPredatingTheField) {
  const auto spec = small_spec(exp::EngineKind::kPacket,
                               control::ControllerMode::kOff);
  // A runner whose default controller is explicitly kOff must produce the
  // same bytes as one that never heard of controllers.
  const std::string plain = run_report_json(spec, 1, 0);
  exp::Runner runner(1);
  runner.set_controller(control::ControllerConfig{});  // mode kOff
  exp::Report report("control-determinism");
  for (auto& cell : runner.run({{spec, {}}})) report.add(std::move(cell));
  EXPECT_EQ(plain, report.to_json(false));
  EXPECT_EQ(plain.find("controller"), std::string::npos);
  EXPECT_EQ(plain.find("ctl/"), std::string::npos);
}

TEST(Runner, DefaultControllerMergesIntoUnpinnedCellsOnly) {
  auto unpinned = small_spec(exp::EngineKind::kFsim,
                             control::ControllerMode::kOff);
  unpinned.name = "unpinned";
  auto pinned = small_spec(exp::EngineKind::kFsim,
                           control::ControllerMode::kHostLocal);
  pinned.name = "pinned";

  exp::Runner runner(2);
  auto cc = centralized_config();
  runner.set_controller(cc);
  const auto cells = runner.run({{unpinned, {}}, {pinned, {}}});
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].spec.controller.mode,
            control::ControllerMode::kCentralized);
  EXPECT_EQ(cells[1].spec.controller.mode,
            control::ControllerMode::kHostLocal);
}

}  // namespace
}  // namespace pnet
