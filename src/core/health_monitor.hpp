// End-host failure detection (§3.4): "end hosts ... can quickly detect
// individual dataplane failures via link status and avoid using the broken
// dataplane(s)".
//
// HealthMonitor models the information path of that sentence. The
// control::LinkStateBus tells it the instant a fault hits the fabric; the
// monitor waits out a configurable link-status propagation delay
// (carrier-loss debounce + software notification on a real NIC) and only
// then lets the host stack react:
//   * every registered PathSelector marks the plane failed/recovered, so
//     new flows avoid (or resume using) it;
//   * the FlowFactory repaths live single-path flows off a failed plane,
//     abandons MPTCP subflows on it, and revives abandoned subflows when
//     the plane recovers.
// A degraded cable (a dead one is a degraded cable at loss 1) stays
// invisible to host link status (the host's own uplink is up), so flows
// crossing it must save themselves via the transport-level path-suspect
// repath. Every detection is logged for the time-to-detect accounting of
// analysis::plane_episodes and analysis::analyze_episode.
#pragma once

#include <deque>
#include <utility>
#include <vector>

#include "core/path_selector.hpp"
#include "sim/faults.hpp"
#include "telemetry/trace.hpp"

namespace pnet::core {

struct HealthMonitorConfig {
  /// Fault-to-host link-status propagation delay; 0 = instantaneous oracle.
  SimTime detect_delay = units::kMillisecond;
};

class HealthMonitor : public sim::EventSource {
 public:
  /// (fabric event, simulated time the hosts learned of it).
  using Detection = std::pair<sim::FaultEvent, SimTime>;

  HealthMonitor(sim::EventQueue& events, HealthMonitorConfig config = {})
      : events_(events), config_(config) {}

  /// Registers a selector to drive on detected plane state changes.
  void add_selector(PathSelector& selector) {
    selectors_.push_back(&selector);
  }
  /// Registers the factory whose live flows react to plane transitions.
  void set_factory(sim::FlowFactory& factory) { factory_ = &factory; }

  /// Records host-side detections ("detect" instants, arg = plane) into
  /// `trace`. Null detaches (the default zero-cost path); must outlive the
  /// monitor.
  void set_trace(telemetry::Trace* trace) { trace_ = trace; }

  /// Raw fabric-event intake; schedules the delayed host-side reaction.
  /// Fed by control::LinkStateBus::subscribe_health_monitor.
  void on_fault(const sim::FaultEvent& event);

  void do_next_event() override;

  [[nodiscard]] const std::vector<Detection>& detections() const {
    return detections_;
  }
  [[nodiscard]] const HealthMonitorConfig& config() const { return config_; }

 private:
  void react(const sim::FaultEvent& event);

  sim::EventQueue& events_;
  HealthMonitorConfig config_;
  std::vector<PathSelector*> selectors_;
  sim::FlowFactory* factory_ = nullptr;
  telemetry::Trace* trace_ = nullptr;
  /// Events in flight to the hosts, with their delivery times. The delay is
  /// constant, so delivery order == arrival order and a deque suffices.
  std::deque<Detection> pending_;
  std::vector<Detection> detections_;
};

}  // namespace pnet::core
