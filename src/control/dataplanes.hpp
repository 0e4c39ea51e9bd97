// Engine adapters behind control::Dataplane, plus the event-queue driver
// that gives the packet engine its control-loop cadence.
//
// One Controller implementation drives both engines: PacketDataplane maps
// the observe/actuate interface onto core::SimHarness (queue stats, the
// PathSelector actuators, FlowFactory::repin_flows), FluidDataplane onto
// fsim::FluidSimulator (plane-attributed delivered bytes, routing mask,
// FluidSimulator::repin_flows). The fluid engine calls Controller::tick
// from FluidSimulator::set_control; the packet engine schedules a
// ControlDriver on the harness's control queue — control-queue events run
// at barrier epochs, which is what keeps controller-enabled reports
// byte-identical at every --sim-threads value.
#pragma once

#include <vector>

#include "control/controller.hpp"
#include "core/harness.hpp"
#include "fsim/fluid.hpp"
#include "sim/event_queue.hpp"

namespace pnet::control {

class PacketDataplane : public Dataplane {
 public:
  /// The harness must outlive the dataplane. Repin needs repath metadata:
  /// call harness.selector().enable_repath(harness.factory()) before
  /// flows launch.
  explicit PacketDataplane(core::SimHarness& harness) : harness_(harness) {}

  [[nodiscard]] int num_planes() const override {
    return harness_.net().num_planes();
  }
  [[nodiscard]] double plane_bytes(int plane) const override {
    return static_cast<double>(
        harness_.network().plane_forwarded_bytes(plane));
  }
  [[nodiscard]] double plane_queue_bytes(int plane) const override {
    return static_cast<double>(harness_.network().plane_queued_bytes(plane));
  }
  [[nodiscard]] std::uint64_t route_invalidations() const override {
    return harness_.selector().route_cache().stats().invalidations;
  }
  void on_plane_detected(int plane, bool down) override;
  void set_plane_weights(const std::vector<double>& weights) override;
  int repin(int from_plane, int to_plane, int max_flows) override;

 private:
  core::SimHarness& harness_;
};

class FluidDataplane : public Dataplane {
 public:
  /// Turns on the simulator's per-plane delivered-byte attribution (the
  /// utilization feed). The simulator must outlive the dataplane.
  explicit FluidDataplane(fsim::FluidSimulator& fluid)
      : fluid_(fluid),
        masked_(static_cast<std::size_t>(fluid.num_planes()), false) {
    fluid_.enable_plane_accounting();
  }

  [[nodiscard]] int num_planes() const override {
    return fluid_.num_planes();
  }
  [[nodiscard]] double plane_bytes(int plane) const override {
    return fluid_.plane_delivered_bytes(plane);
  }
  [[nodiscard]] double plane_queue_bytes(int /*plane*/) const override {
    return 0.0;  // the fluid model has no queues
  }
  [[nodiscard]] std::uint64_t route_invalidations() const override {
    return fluid_.route_cache().stats().invalidations;
  }
  void on_plane_detected(int plane, bool down) override;
  void set_plane_weights(const std::vector<double>& weights) override;
  int repin(int from_plane, int to_plane, int max_flows) override {
    return fluid_.repin_flows(from_plane, to_plane, max_flows);
  }

 private:
  fsim::FluidSimulator& fluid_;
  std::vector<bool> masked_;  // lazily sized; mirrors set_plane_usable
};

/// Drives Controller::tick off the packet simulator's control queue — the
/// control-plane sibling of sim::TelemetryDriver. One self-rescheduling
/// EventSource firing every cadence; it only re-arms while other
/// simulation work is pending, on the control queue or on any shard, so a
/// drained run still terminates.
class ControlDriver : public sim::EventSource {
 public:
  /// The harness must outlive the driver.
  ControlDriver(core::SimHarness& harness, Controller& controller,
                SimTime cadence)
      : events_(harness.events()), shards_(harness.shards()),
        controller_(controller), cadence_(cadence) {}

  /// Arms the controller's sampler at `at`; the first tick fires one
  /// cadence later.
  void start(SimTime at) {
    controller_.start(at);
    next_ = at + cadence_;
    events_.schedule_aux_at(next_, this);
  }

  void do_next_event() override {
    events_.aux_fired();
    controller_.tick(events_.now());
    next_ += cadence_;
    // real_pending() excludes sibling drivers (telemetry sampling), so a
    // drained run terminates even with both loops armed.
    if (events_.real_pending() > 0 || shards_.busy()) {
      events_.schedule_aux_at(next_, this);
    }
  }

 private:
  sim::EventQueue& events_;
  const sim::ShardSet& shards_;
  Controller& controller_;
  SimTime cadence_;
  SimTime next_ = 0;
};

}  // namespace pnet::control
