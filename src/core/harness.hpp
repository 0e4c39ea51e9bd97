// One-stop simulation harness: builds the topology, the simulated network,
// the path selector, and the workload-facing flow starter in the right
// order. Benches and examples compose experiments from this plus the
// workload drivers.
#pragma once

#include <memory>
#include <string>

#include "core/path_selector.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/telemetry_driver.hpp"
#include "telemetry/telemetry.hpp"
#include "topo/parallel.hpp"
#include "util/audit.hpp"
#include "util/cancel.hpp"
#include "workload/apps.hpp"

namespace pnet::core {

class SimHarness {
 public:
  /// Named construction options — everything beyond `spec` and `policy` is
  /// opt-in, so call sites read as `SimHarness({.spec = s, .policy = p})`.
  struct Options {
    topo::NetworkSpec spec;
    PolicyConfig policy;
    sim::SimConfig sim_config{};
    /// Shares one compiled route store across harnesses — e.g. every trial
    /// of an experiment cell; see routing::RouteCache for the determinism
    /// contract. Null gives the selector a private cache.
    std::shared_ptr<routing::RouteCache> route_cache{};
    /// Wires counters, the sampler, and the trace through the whole stack
    /// (network faults, flow lifecycle, queue depths, per-plane rates).
    /// Must outlive the harness; null disables instrumentation entirely.
    telemetry::Telemetry* telemetry = nullptr;
    /// Cooperative-cancellation token polled by the event loop; run()/
    /// run_until() return early once it fires. Must outlive the harness.
    const util::CancelToken* cancel = nullptr;
    /// Invariant auditor wired through the event queue and every queue in
    /// the network (collected violations; see util::Audit). When null and
    /// PNET_AUDIT=1 is set, the harness owns a private fail-fast auditor so
    /// direct users (unit tests, examples) get audited too.
    util::Audit* audit = nullptr;
    /// Worker threads of the plane-sharded packet engine (DESIGN.md §5i),
    /// clamped to [1, planes]; values <= 1 run every shard inline on the
    /// caller's thread. The shard layout is fixed by the topology, so every
    /// value produces byte-identical results.
    int sim_threads = 1;
  };

  explicit SimHarness(const Options& options);

  [[nodiscard]] const topo::ParallelNetwork& net() const { return net_; }
  [[nodiscard]] sim::EventQueue& events() { return events_; }
  [[nodiscard]] sim::SimNetwork& network() { return network_; }
  [[nodiscard]] sim::FlowLogger& logger() { return logger_; }
  [[nodiscard]] sim::FlowFactory& factory() { return factory_; }
  [[nodiscard]] PathSelector& selector() { return selector_; }
  [[nodiscard]] const workload::FlowStarter& starter() const {
    return starter_;
  }

  /// All hosts of the network, for workload drivers.
  [[nodiscard]] std::vector<HostId> all_hosts() const {
    std::vector<HostId> hosts;
    hosts.reserve(static_cast<std::size_t>(net_.num_hosts()));
    for (int h = 0; h < net_.num_hosts(); ++h) hosts.push_back(HostId{h});
    return hosts;
  }

  /// The shard set that carries every packet: one shard per plane.
  [[nodiscard]] sim::ShardSet& shards() { return shards_; }

  /// Events dispatched across the control queue and every shard — the
  /// run's throughput numerator.
  [[nodiscard]] std::uint64_t dispatched() const {
    return events_.dispatched() + shards_.dispatched();
  }

  /// Runs the event loop to completion (or to a deadline).
  void run() { shards_.run(events_); }
  void run_until(SimTime deadline) { shards_.run_until(events_, deadline); }

  /// The telemetry sampler stops once run() drains every queue; this
  /// re-arms it before more work is scheduled (e.g. a back-to-back round).
  /// No-op without telemetry.
  void resume_sampling() {
    if (driver_ != nullptr) driver_->resume(events_.now());
  }

  /// Logs partial FlowRecords for flows still active — run_until stops the
  /// clock, it does not complete in-flight transfers, so without this the
  /// FlowLogger silently under-reports launched flows. Call once after the
  /// final run/run_until; returns the number of flows finalized. Also runs
  /// the end-of-trial conservation sweep when an auditor is attached —
  /// this must work after a cancelled run too, so partial results still
  /// get both their flow records and their audit.
  int finalize(SimTime at) {
    const int n = factory_.finalize(at);
    audit_check();
    return n;
  }

  /// The attached auditor — options.audit, or the private fail-fast one
  /// created under PNET_AUDIT=1; nullptr when auditing is off.
  [[nodiscard]] util::Audit* audit() { return audit_; }

  /// Conservation sweep over every queue, plus the steady-state allocation
  /// invariant: the event queues must never have regrown past the
  /// reservation made in the constructor. No-op without an auditor.
  void audit_check() {
    if (audit_ == nullptr) return;
    // Violations collected on shard threads (event monotonicity, queue
    // occupancy) merge into the main auditor first, then the boundary
    // conservation + per-shard reservation sweep runs.
    shards_.collect_audit(*audit_);
    shards_.audit_check(*audit_);
    network_.audit_check(*audit_);
    audit_->note_check();
    if (events_.reserved() && events_.regrowths() > 0) {
      audit_->fail("event queue regrew " +
                   std::to_string(events_.regrowths()) +
                   " times past its reservation (capacity now " +
                   std::to_string(events_.capacity()) + " entries)");
    }
  }

 private:
  void wire_telemetry();

  topo::ParallelNetwork net_;
  /// The control queue: faults, health probes, telemetry, controller
  /// ticks and workload apps. Packets and transport endpoints live on the
  /// shards.
  sim::EventQueue events_;
  sim::FlowLogger logger_;
  /// Must be constructed before network_/factory_, which bind queues and
  /// endpoints to its shards.
  sim::ShardSet shards_;
  sim::SimNetwork network_;
  sim::FlowFactory factory_;
  PathSelector selector_;
  workload::FlowStarter starter_;
  telemetry::Telemetry* telemetry_ = nullptr;
  std::unique_ptr<sim::TelemetryDriver> driver_;
  util::Audit* audit_ = nullptr;
  std::unique_ptr<util::Audit> owned_audit_;  // the PNET_AUDIT=1 fallback
};

}  // namespace pnet::core
