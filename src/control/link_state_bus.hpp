// One observer interface for fabric link-state events.
//
// The bus is the single subscription point for sim::FaultEvents: sources
// publish (a packet-sim FaultInjector, a fluid simulator's fabric schedule,
// or a test calling publish() by hand), and every observer —
// core::HealthMonitor, control::Controller, any test probe — sees every
// event, in subscription order, on the simulation thread.
//
// Determinism: the bus adds no state of its own beyond counters — delivery
// is synchronous and ordered, so a run's behavior is a pure function of the
// (simulated-time-ordered) event stream, never of wall clock or thread
// interleaving.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fsim/fluid.hpp"
#include "sim/faults.hpp"

namespace pnet::core {
class HealthMonitor;
}

namespace pnet::control {

class LinkStateBus {
 public:
  using Observer = std::function<void(const sim::FaultEvent&)>;

  /// Subscribes `observer`; it sees every subsequent publish, in
  /// subscription order. Subscribe everything before the run starts.
  void subscribe(Observer observer);

  /// HealthMonitor convenience: forwards every event to
  /// HealthMonitor::on_fault (the detection-delay intake).
  void subscribe_health_monitor(core::HealthMonitor& monitor);

  /// Wires the packet-sim fault injector as a source: every applied fault
  /// is re-published here.
  void attach(sim::FaultInjector& injector);

  /// Wires the fluid simulator's fabric as a source: plane down/up events
  /// arrive as kPlaneFail/kPlaneRecover.
  void attach(fsim::FluidSimulator& fluid);

  /// Delivers one event to every observer (also the injection point for
  /// tests and hand-rolled sources).
  void publish(const sim::FaultEvent& event);

  [[nodiscard]] std::uint64_t published() const { return published_; }
  [[nodiscard]] std::size_t num_observers() const {
    return observers_.size();
  }

 private:
  std::vector<Observer> observers_;
  std::uint64_t published_ = 0;
};

}  // namespace pnet::control
