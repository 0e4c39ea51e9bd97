// Dynamic fault injection: timed plane failures and flaps, and degraded
// cables, driven through the event queue while traffic is running.
//
// The paper's §3.4 resilience story ("hosts detect dataplane failures via
// link status and avoid the broken dataplane") is a *dynamic* claim — it is
// about reaction time, not steady state. A FaultPlan is a deterministic,
// seedable schedule of fault events; a FaultInjector replays it on the
// simulated network and tells listeners (core::HealthMonitor, stats
// collectors) the instant each event hits the fabric. The same plan on the
// same network replays bit-identically, so recovery experiments are exactly
// reproducible.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "topo/parallel.hpp"

namespace pnet::sim {

enum class FaultKind : std::uint8_t {
  kPlaneFail,
  kPlaneRecover,
  /// Degraded cable: loss_rate / rate_scale take effect. A dead cable is
  /// a degraded cable at loss 1.
  kCableDegrade,
  /// Degradation cleared (loss 0, full service rate).
  kCableRestore,
};

[[nodiscard]] std::string to_string(FaultKind kind);

struct FaultEvent {
  SimTime at = 0;
  FaultKind kind = FaultKind::kPlaneFail;
  int plane = 0;
  /// Either direction of the duplex pair, for the cable-scoped kinds;
  /// ignored for plane-scoped kinds.
  LinkId link{-1};
  double loss_rate = 0.0;   // kCableDegrade
  double rate_scale = 1.0;  // kCableDegrade
};

/// A deterministic schedule of fault events. Compose by hand or with the
/// seeded generators; arm() a FaultInjector with it before running.
class FaultPlan {
 public:
  FaultPlan& add(FaultEvent event);

  FaultPlan& fail_plane(SimTime at, int plane);
  FaultPlan& recover_plane(SimTime at, int plane);
  /// A flap: the plane dies at `at` and comes back `down_for` later.
  FaultPlan& flap_plane(SimTime at, SimTime down_for, int plane);

  /// A degraded-link episode: random loss and/or reduced service rate from
  /// `at` until `until`.
  FaultPlan& degrade_cable(SimTime at, SimTime until, int plane, LinkId link,
                           double loss_rate, double rate_scale = 1.0);

  /// Seeded generator: `count` random switch-to-switch cables (host
  /// uplinks excluded) run degraded (loss + rate scale) from start until
  /// start + duration.
  static FaultPlan random_degraded_links(const topo::ParallelNetwork& net,
                                        int count, SimTime start,
                                        SimTime duration, double loss_rate,
                                        double rate_scale,
                                        std::uint64_t seed);

  /// Events sorted by (time, insertion order).
  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Merges another plan's events into this one.
  FaultPlan& merge(const FaultPlan& other);

 private:
  void sort_events();

  std::vector<FaultEvent> events_;
  bool sorted_ = true;
};

/// Replays a FaultPlan on a SimNetwork through the event queue.
class FaultInjector : public EventSource {
 public:
  /// Called synchronously when an event has just been applied to the
  /// fabric. Listeners model the *information* path (e.g. the link-status
  /// propagation delay of core::HealthMonitor); the fabric effect itself is
  /// already live.
  using Listener = std::function<void(const FaultEvent&)>;

  FaultInjector(EventQueue& events, SimNetwork& network)
      : events_(events), network_(network) {}

  /// Schedules every event of `plan`. May be called multiple times (plans
  /// accumulate); call before or while the loop runs, never for times in
  /// the past.
  void arm(const FaultPlan& plan);
  void add_listener(Listener listener) {
    listeners_.push_back(std::move(listener));
  }

  void do_next_event() override;

  /// What actually hit the fabric so far, with the network-wide drop
  /// counter sampled at that instant (episode loss attribution for
  /// analysis::plane_episodes).
  struct AppliedEvent {
    FaultEvent event;
    std::uint64_t total_drops_at_apply = 0;
  };
  [[nodiscard]] const std::vector<AppliedEvent>& applied() const {
    return applied_;
  }
  [[nodiscard]] int events_pending() const {
    return static_cast<int>(pending_.size()) - next_;
  }

 private:
  void apply(const FaultEvent& event);

  EventQueue& events_;
  SimNetwork& network_;
  std::vector<FaultEvent> pending_;  // sorted by time
  int next_ = 0;
  std::vector<Listener> listeners_;
  std::vector<AppliedEvent> applied_;
};

}  // namespace pnet::sim
