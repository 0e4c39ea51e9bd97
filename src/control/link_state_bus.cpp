#include "control/link_state_bus.hpp"

#include "core/health_monitor.hpp"

namespace pnet::control {

void LinkStateBus::subscribe(Observer observer) {
  observers_.push_back(std::move(observer));
}

void LinkStateBus::subscribe_health_monitor(core::HealthMonitor& monitor) {
  subscribe([&monitor](const sim::FaultEvent& event) {
    monitor.on_fault(event);
  });
}

void LinkStateBus::attach(sim::FaultInjector& injector) {
  injector.add_listener(
      [this](const sim::FaultEvent& event) { publish(event); });
}

void LinkStateBus::attach(fsim::FluidSimulator& fluid) {
  fluid.set_fault_listener(
      [this](const fsim::FluidSimulator::FabricEvent& event) {
        sim::FaultEvent fault;
        fault.at = event.at;
        fault.kind = event.down ? sim::FaultKind::kPlaneFail
                                : sim::FaultKind::kPlaneRecover;
        fault.plane = event.plane;
        publish(fault);
      });
}

void LinkStateBus::publish(const sim::FaultEvent& event) {
  ++published_;
  for (const Observer& observer : observers_) observer(event);
}

}  // namespace pnet::control
