#include "core/health_monitor.hpp"

namespace pnet::core {

void HealthMonitor::on_fault(const sim::FaultEvent& event) {
  pending_.emplace_back(event, events_.now() + config_.detect_delay);
  events_.schedule_in(config_.detect_delay, this);
}

void HealthMonitor::do_next_event() {
  while (!pending_.empty() && pending_.front().second <= events_.now()) {
    const Detection detection = pending_.front();
    pending_.pop_front();
    detections_.push_back(detection);
    react(detection.first);
  }
}

void HealthMonitor::react(const sim::FaultEvent& event) {
  PNET_TRACE_INSTANT(trace_, "detect", events_.now(),
                     static_cast<std::int64_t>(event.plane));
  switch (event.kind) {
    case sim::FaultKind::kPlaneFail:
      for (PathSelector* selector : selectors_) {
        selector->set_plane_failed(event.plane, true);
      }
      if (factory_ != nullptr) factory_->on_plane_failed(event.plane);
      break;
    case sim::FaultKind::kPlaneRecover:
      for (PathSelector* selector : selectors_) {
        selector->set_plane_failed(event.plane, false);
      }
      if (factory_ != nullptr) factory_->on_plane_recovered(event.plane);
      break;
    case sim::FaultKind::kCableDegrade:
    case sim::FaultKind::kCableRestore:
      // The cable stays in service (possibly lossy or slow); routing
      // around it is the transport's call.
      break;
  }
}

}  // namespace pnet::core
