#include "sim/faults.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace pnet::sim {

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPlaneFail: return "plane-fail";
    case FaultKind::kPlaneRecover: return "plane-recover";
    case FaultKind::kCableDegrade: return "cable-degrade";
    case FaultKind::kCableRestore: return "cable-restore";
  }
  return "?";
}

// -------------------------------------------------------------- FaultPlan

FaultPlan& FaultPlan::add(FaultEvent event) {
  if (!events_.empty() && event.at < events_.back().at) sorted_ = false;
  events_.push_back(event);
  if (!sorted_) sort_events();
  return *this;
}

void FaultPlan::sort_events() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  sorted_ = true;
}

FaultPlan& FaultPlan::fail_plane(SimTime at, int plane) {
  return add({at, FaultKind::kPlaneFail, plane, LinkId{-1}, 0.0, 1.0});
}

FaultPlan& FaultPlan::recover_plane(SimTime at, int plane) {
  return add({at, FaultKind::kPlaneRecover, plane, LinkId{-1}, 0.0, 1.0});
}

FaultPlan& FaultPlan::flap_plane(SimTime at, SimTime down_for, int plane) {
  fail_plane(at, plane);
  return recover_plane(at + down_for, plane);
}

FaultPlan& FaultPlan::degrade_cable(SimTime at, SimTime until, int plane,
                                    LinkId link, double loss_rate,
                                    double rate_scale) {
  add({at, FaultKind::kCableDegrade, plane, link, loss_rate, rate_scale});
  return add({until, FaultKind::kCableRestore, plane, link, 0.0, 1.0});
}

FaultPlan& FaultPlan::merge(const FaultPlan& other) {
  for (const auto& event : other.events_) add(event);
  return *this;
}

namespace {

/// Forward links of switch-to-switch cables across every plane — the
/// failure domain of the Fig 14 study (host uplinks never fail here).
std::vector<std::pair<int, LinkId>> fabric_cables(
    const topo::ParallelNetwork& net) {
  std::vector<std::pair<int, LinkId>> cables;
  for (int p = 0; p < net.num_planes(); ++p) {
    const topo::Graph& g = net.plane(p).graph;
    for (int l = 0; l < g.num_links(); l += 2) {
      const topo::Link& link = g.link(LinkId{l});
      if (!g.is_host(link.src) && !g.is_host(link.dst)) {
        cables.emplace_back(p, LinkId{l});
      }
    }
  }
  return cables;
}

}  // namespace

FaultPlan FaultPlan::random_degraded_links(const topo::ParallelNetwork& net,
                                           int count, SimTime start,
                                           SimTime duration, double loss_rate,
                                           double rate_scale,
                                           std::uint64_t seed) {
  Rng rng(seed);
  auto cables = fabric_cables(net);
  rng.shuffle(cables);
  if (static_cast<int>(cables.size()) > count) {
    cables.resize(static_cast<std::size_t>(count));
  }
  FaultPlan plan;
  for (const auto& [plane, link] : cables) {
    plan.degrade_cable(start, start + duration, plane, link, loss_rate,
                       rate_scale);
  }
  return plan;
}

// ---------------------------------------------------------- FaultInjector

void FaultInjector::arm(const FaultPlan& plan) {
  if (plan.empty()) return;
  pending_.insert(pending_.end(), plan.events().begin(), plan.events().end());
  // Re-sort the not-yet-applied tail (arming twice interleaves plans).
  std::stable_sort(pending_.begin() + next_, pending_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  events_.schedule_at(pending_[static_cast<std::size_t>(next_)].at, this);
}

void FaultInjector::do_next_event() {
  while (next_ < static_cast<int>(pending_.size()) &&
         pending_[static_cast<std::size_t>(next_)].at <= events_.now()) {
    apply(pending_[static_cast<std::size_t>(next_)]);
    ++next_;
  }
  if (next_ < static_cast<int>(pending_.size())) {
    events_.schedule_at(pending_[static_cast<std::size_t>(next_)].at, this);
  }
}

void FaultInjector::apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kPlaneFail:
      network_.set_plane_failed(event.plane, true);
      break;
    case FaultKind::kPlaneRecover:
      network_.set_plane_failed(event.plane, false);
      break;
    case FaultKind::kCableDegrade:
      network_.set_cable_degraded(event.plane, event.link, event.loss_rate,
                                  event.rate_scale);
      break;
    case FaultKind::kCableRestore:
      network_.set_cable_degraded(event.plane, event.link, 0.0, 1.0);
      break;
  }
  applied_.push_back({event, network_.total_drops()});
  for (const auto& listener : listeners_) listener(event);
}

}  // namespace pnet::sim
