#include "core/harness.hpp"

#include <string>

namespace pnet::core {

SimHarness::SimHarness(const Options& options)
    : net_(topo::build_network(options.spec)),
      shards_(net_.num_planes(), options.sim_threads),
      network_(events_, net_, options.sim_config, shards_),
      factory_(events_, network_, logger_),
      selector_(net_, options.policy, options.route_cache),
      starter_(selector_.make_starter(factory_)),
      telemetry_(options.telemetry) {
  // Reserve the event queues up front and arm regrowth tracking; links
  // dominate a shard's steady-state pending set (one in-service completion
  // per queue, one delivery wake-up per pipe), plus slack for arrival wakes
  // (Arrivals can park a few superseded wakes per shard; see shard.hpp).
  // The control queue gets the same bound, far more than its drivers,
  // fault injector, health monitor and workload apps keep pending.
  // FlowFactory grows the shard reservations as endpoints appear.
  // audit_check() treats any regrowth as a violation.
  const std::size_t link_bound =
      2 * network_.total_links() + static_cast<std::size_t>(net_.num_hosts());
  events_.reserve(link_bound + 64);
  shards_.reserve_events(link_bound + 256);
  if (telemetry_ != nullptr) wire_telemetry();
  if (options.cancel != nullptr) {
    events_.set_cancel(options.cancel);
    shards_.set_cancel(options.cancel);
  }
  audit_ = options.audit;
  if (audit_ == nullptr && util::Audit::env_enabled()) {
    // Env opt-in without runner plumbing (unit tests, examples): fail fast
    // so the breach aborts the test at the violation site.
    owned_audit_ = std::make_unique<util::Audit>(/*fail_fast=*/true);
    audit_ = owned_audit_.get();
  }
  if (audit_ != nullptr) {
    events_.set_audit(audit_);
    network_.set_audit(audit_);
    shards_.enable_audit();
  }
}

void SimHarness::wire_telemetry() {
  using telemetry::Sampler;
  network_.set_trace(&telemetry_->trace);
  factory_.set_telemetry(telemetry_);
  if (telemetry_->config.sample_every <= 0) return;

  Sampler& sampler = telemetry_->sampler;
  // Goodput as a rate of the cumulative acked-bytes counter — the exact
  // series analysis::GoodputProbe produces, now on the shared sample grid.
  sampler.add_series(
      "goodput_bps", Sampler::Kind::kRate,
      [this] {
        return static_cast<double>(factory_.total_delivered_bytes());
      },
      8.0);
  sampler.add_series("queue_bytes", Sampler::Kind::kGauge, [this] {
    return static_cast<double>(network_.total_queued_bytes());
  });
  sampler.add_series("queue_bytes_max", Sampler::Kind::kGauge, [this] {
    return static_cast<double>(network_.max_queued_bytes());
  });
  sampler.add_series("active_flows", Sampler::Kind::kGauge, [this] {
    return static_cast<double>(factory_.active_flows());
  });
  for (int p = 0; p < net_.num_planes(); ++p) {
    sampler.add_series(
        "plane" + std::to_string(p) + "_util_bps", Sampler::Kind::kRate,
        [this, p] {
          return static_cast<double>(network_.plane_forwarded_bytes(p));
        },
        8.0);
  }
  driver_ = std::make_unique<sim::TelemetryDriver>(events_, shards_, sampler);
  driver_->start(events_.now());
}

}  // namespace pnet::core
