#include "control/controller.hpp"

#include <string>

#include "control/link_state_bus.hpp"

namespace pnet::control {

namespace {

constexpr util::EnumName<ControllerMode> kModeNames[] = {
    {ControllerMode::kOff, "off"},
    {ControllerMode::kHostLocal, "host-local"},
    {ControllerMode::kCentralized, "centralized"},
};

/// Load floor in the inverse-load weight: keeps an idle plane's weight
/// finite and bounds the bias ratio between planes.
constexpr double kLoadFloorBps = 1e6;

}  // namespace

util::EnumNames<ControllerMode> name_table(ControllerMode) {
  return kModeNames;
}
const char* to_string(ControllerMode mode) { return util::to_name(mode); }

std::string ControllerConfig::validate() const {
  if (!active()) return "";
  if (cadence <= 0) return "controller cadence must be > 0";
  if (detect_delay < 0) return "controller detect delay must be >= 0";
  if (imbalance_threshold < 1.0) {
    return "controller imbalance threshold must be >= 1";
  }
  if (max_repins_per_tick < 0) return "controller max repins must be >= 0";
  if (window < 1) return "controller window must be >= 1";
  return "";
}

Controller::Controller(const ControllerConfig& config, Dataplane& dataplane)
    : config_(config), dp_(dataplane),
      sampler_(telemetry::Sampler::Config{config.cadence, 512}),
      plane_down_(static_cast<std::size_t>(dataplane.num_planes()), false) {
  const int planes = dp_.num_planes();
  util_series_.reserve(static_cast<std::size_t>(planes));
  queue_series_.reserve(static_cast<std::size_t>(planes));
  for (int p = 0; p < planes; ++p) {
    util_series_.push_back(sampler_.add_series(
        "plane" + std::to_string(p) + "_util_bps",
        telemetry::Sampler::Kind::kRate, [this, p] { return dp_.plane_bytes(p); },
        8.0));
    queue_series_.push_back(sampler_.add_series(
        "plane" + std::to_string(p) + "_queue_bytes",
        telemetry::Sampler::Kind::kGauge,
        [this, p] { return dp_.plane_queue_bytes(p); }));
  }
}

void Controller::observe(LinkStateBus& bus) {
  bus.subscribe(
      [this](const sim::FaultEvent& event) { on_fabric_event(event); });
}

void Controller::on_fabric_event(const sim::FaultEvent& event) {
  // Events arrive in simulated-time order, so the deque stays due-sorted.
  pending_.push_back(PendingEvent{event.at + config_.detect_delay, event});
}

void Controller::start(SimTime at) { sampler_.start(at); }

double Controller::plane_load(int plane) const {
  const auto p = static_cast<std::size_t>(plane);
  double util_sum = 0.0;
  std::size_t buckets = 0;
  sampler_.read(util_series_[p], 0, static_cast<std::size_t>(config_.window),
                [&](const telemetry::Sampler::Sample& sample) {
                  util_sum += sample.value;
                  ++buckets;
                });
  const double util =
      buckets > 0 ? util_sum / static_cast<double>(buckets) : 0.0;
  double queue_bytes = 0.0;
  sampler_.read(queue_series_[p], 0, 1,
                [&](const telemetry::Sampler::Sample& sample) {
                  queue_bytes = sample.value;
                });
  // Queued backlog expressed as the bit rate needed to drain it within one
  // cadence: a congested plane looks hot even while its goodput collapses.
  return util + queue_bytes * 8.0 / units::to_seconds(config_.cadence);
}

void Controller::tick(SimTime now) {
  ++ticks_;

  // 1. Confirmed fabric events: act on everything whose detection delay
  //    has elapsed. Any plane transition or cable degrade/restore this
  //    tick holds rebalancing below — load samples spanning a fabric
  //    change would chase a state that no longer exists.
  bool churn = false;
  while (!pending_.empty() && pending_.front().due <= now) {
    const sim::FaultEvent event = pending_.front().event;
    pending_.pop_front();
    switch (event.kind) {
      case sim::FaultKind::kPlaneFail:
      case sim::FaultKind::kPlaneRecover: {
        const bool down = event.kind == sim::FaultKind::kPlaneFail;
        const auto p = static_cast<std::size_t>(event.plane);
        if (plane_down_[p] != down) {
          plane_down_[p] = down;
          dp_.on_plane_detected(event.plane, down);
          ++plane_events_;
        }
        churn = true;
        break;
      }
      case sim::FaultKind::kCableDegrade:
      case sim::FaultKind::kCableRestore:
        churn = true;  // cable-level churn: observe, hold rebalancing
        break;
    }
  }

  // 2. Pull fresh samples up to this grid point.
  sampler_.advance(now);

  const int planes = dp_.num_planes();
  std::vector<double> load(static_cast<std::size_t>(planes), 0.0);
  for (int p = 0; p < planes; ++p) {
    load[static_cast<std::size_t>(p)] = plane_load(p);
  }

  // 3. Inverse-load placement bias: dead planes weigh 0, light planes
  //    attract new flows. Applied every tick (idempotent, deterministic).
  std::vector<double> weights(static_cast<std::size_t>(planes), 0.0);
  for (int p = 0; p < planes; ++p) {
    const auto i = static_cast<std::size_t>(p);
    weights[i] = plane_down_[i] ? 0.0 : 1.0 / (load[i] + kLoadFloorBps);
  }
  dp_.set_plane_weights(weights);

  if (churn) {
    ++churn_skips_;
    return;
  }

  // 4. Rebalance live flows when the load ratio crosses the threshold:
  //    hottest usable plane donates up to the per-tick budget to the
  //    coolest one. Lowest plane index wins ties, keeping the decision a
  //    pure function of sampled state.
  if (config_.max_repins_per_tick <= 0) return;
  int hottest = -1;
  int coolest = -1;
  for (int p = 0; p < planes; ++p) {
    if (plane_down_[static_cast<std::size_t>(p)]) continue;
    const double l = load[static_cast<std::size_t>(p)];
    if (hottest < 0 || l > load[static_cast<std::size_t>(hottest)]) {
      hottest = p;
    }
    if (coolest < 0 || l < load[static_cast<std::size_t>(coolest)]) {
      coolest = p;
    }
  }
  if (hottest < 0 || coolest < 0 || hottest == coolest) return;
  // Cooldown: after a repin burst, hold further rebalancing until the
  // moved flows' load has filled the sampling window. Judging again on
  // samples that predate the move would oscillate flows back and forth —
  // each packet-engine repin restarts the transport cold, so churn costs
  // real goodput.
  if (now < rebalance_hold_until_) return;
  const double max_load = load[static_cast<std::size_t>(hottest)];
  const double min_load = load[static_cast<std::size_t>(coolest)];
  if (max_load <= config_.imbalance_threshold * min_load + 1.0) return;
  const int moved = dp_.repin(hottest, coolest, config_.max_repins_per_tick);
  repins_ += static_cast<std::uint64_t>(moved);
  if (moved > 0) {
    rebalance_hold_until_ = now + config_.window * config_.cadence;
  }
}

}  // namespace pnet::control
