// Online adaptive control plane (ROADMAP item 4, in the spirit of
// MPTCP-aware SDN, arXiv 1511.09295).
//
// A Controller runs on a fixed control-loop cadence inside either engine,
// observes per-plane utilization and queue depth through a private
// telemetry::Sampler (the pull-based read() API is its input path), learns
// confirmed plane state from the LinkStateBus after a detection delay,
// and actuates through a Dataplane: masking dead planes,
// biasing new-flow placement with inverse-load weights, and re-pinning live
// flows from the hottest usable plane to the coolest one when the load
// ratio crosses a threshold.
//
// Determinism rules (DESIGN.md §5j): every decision is a pure function of
// (simulated time, sampled state at grid points, the fabric event stream).
// Ticks run as simulation events — on the packet engine's control queue
// (barrier epochs when sharded), inside the fluid event loop otherwise —
// so reports stay byte-identical at every --threads / --sim-threads value.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/faults.hpp"
#include "telemetry/sampler.hpp"
#include "util/enum_names.hpp"
#include "util/units.hpp"

namespace pnet::control {

class LinkStateBus;

enum class ControllerMode : std::uint8_t {
  /// No control plane at all — the seed behavior, byte-identical to it.
  kOff,
  /// The paper's host-local reaction only: transport-driven repath
  /// (PathSelector::enable_repath) with no global observer. The ablation
  /// baseline.
  kHostLocal,
  /// Host-local reaction plus the global Controller loop.
  kCentralized,
};

[[nodiscard]] const char* to_string(ControllerMode mode);
[[nodiscard]] util::EnumNames<ControllerMode> name_table(ControllerMode);

struct ControllerConfig {
  ControllerMode mode = ControllerMode::kOff;
  /// Control-loop period (also the controller's sampling grid interval).
  SimTime cadence = units::kMillisecond;
  /// Fabric-event confirmation delay before the controller acts on a
  /// plane transition (models controller-to-fabric signaling latency).
  SimTime detect_delay = units::kMillisecond;
  /// Rebalance when max plane load > threshold x min plane load.
  double imbalance_threshold = 1.25;
  /// Repin budget per tick (0 disables flow moves; weights still adapt).
  int max_repins_per_tick = 8;
  /// Load = mean over the last `window` sample buckets.
  int window = 4;

  /// Any control-plane behavior at all (gates spec serialization and
  /// engine wiring; kOff keeps runs byte-identical to the seed).
  [[nodiscard]] bool active() const { return mode != ControllerMode::kOff; }
  /// The global loop itself (a Controller object is built only for this).
  [[nodiscard]] bool centralized() const {
    return mode == ControllerMode::kCentralized;
  }
  /// Empty when valid, else a one-line reason.
  [[nodiscard]] std::string validate() const;
};

/// What the Controller observes and actuates, one implementation per
/// engine (control::PacketDataplane, control::FluidDataplane). All calls
/// happen on the simulation thread at tick/detection time.
class Dataplane {
 public:
  virtual ~Dataplane() = default;

  [[nodiscard]] virtual int num_planes() const = 0;
  /// Cumulative bytes moved over `plane` — monotone; the controller
  /// samples it as a rate.
  [[nodiscard]] virtual double plane_bytes(int plane) const = 0;
  /// Bytes currently queued on `plane` (0 for models without queues).
  [[nodiscard]] virtual double plane_queue_bytes(int plane) const = 0;

  /// Confirmed (post-detection-delay) plane transition: mask the plane out
  /// of new-flow routing and evacuate (or revive) live flows.
  virtual void on_plane_detected(int plane, bool down) = 0;
  /// New-flow placement bias, indexed by plane (empty = uniform).
  virtual void set_plane_weights(const std::vector<double>& weights) = 0;
  /// Moves up to `max_flows` live flows from one plane to another;
  /// returns how many actually moved.
  virtual int repin(int from_plane, int to_plane, int max_flows) = 0;
};

class Controller {
 public:
  /// `dataplane` must outlive the controller. `config.mode` is not
  /// consulted here — whoever constructs a Controller has already decided
  /// to run one.
  Controller(const ControllerConfig& config, Dataplane& dataplane);

  /// Subscribes the fabric intake to `bus` (keeps a reference — the bus
  /// must outlive the controller).
  void observe(LinkStateBus& bus);
  /// Raw fabric-event intake: queued, acted on `detect_delay` later.
  void on_fabric_event(const sim::FaultEvent& event);

  /// Arms the sampling grid; the first tick belongs at `at` + cadence.
  void start(SimTime at);
  /// One control decision at simulated time `now`. The engine calls this
  /// on its control-loop cadence.
  void tick(SimTime now);

  /// Plane state as confirmed by the controller (after detect_delay).
  [[nodiscard]] bool plane_usable(int plane) const {
    return !plane_down_[static_cast<std::size_t>(plane)];
  }

  // Decision counters, folded into experiment reports.
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] std::uint64_t repins() const { return repins_; }
  [[nodiscard]] std::uint64_t plane_events() const { return plane_events_; }
  [[nodiscard]] std::uint64_t churn_skips() const { return churn_skips_; }

 private:
  struct PendingEvent {
    SimTime due = 0;
    sim::FaultEvent event;
  };

  /// Windowed per-plane load: mean sampled utilization plus the queued
  /// backlog expressed as bits-per-cadence of drain pressure.
  [[nodiscard]] double plane_load(int plane) const;

  ControllerConfig config_;
  Dataplane& dp_;
  /// Private sampler on the cadence grid: planeN_util_bps (kRate over
  /// Dataplane::plane_bytes) and planeN_queue_bytes (kGauge).
  telemetry::Sampler sampler_;
  std::vector<std::size_t> util_series_;
  std::vector<std::size_t> queue_series_;
  std::deque<PendingEvent> pending_;
  std::vector<bool> plane_down_;
  /// Rebalance cooldown: no further repin bursts until the sampling window
  /// has refilled with post-move load (prevents oscillation).
  SimTime rebalance_hold_until_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t repins_ = 0;
  std::uint64_t plane_events_ = 0;
  std::uint64_t churn_skips_ = 0;
};

}  // namespace pnet::control
