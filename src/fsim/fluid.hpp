// Flow-level fluid simulator (fsim): the scale-out companion to the packet
// simulator in src/sim.
//
// Flows are fluid demands, not packet streams. Link bandwidth is shared by
// progressive-filling max-min fairness (MaxMinAllocator), re-solved
// incrementally at every flow arrival and departure; between events every
// rate is constant, so the event loop jumps straight to the next arrival or
// the earliest predicted completion. This is the standard flow-level trick
// of the multipath-routing literature (FatPaths et al.): it gives up
// packet-level effects (slow start, queueing delay, retransmits) to gain
// 100x+ wall-clock speedups, which buys k=24/32 fat trees and millions of
// flows. Where the model diverges from src/sim and by how much is
// documented in DESIGN.md and enforced by tests/fsim_test.cpp.
//
// The simulator reuses the existing substrate end to end: topologies come
// from topo::ParallelNetwork, paths from routing:: (ECMP plane hashing, the
// shortest plane, or MPTCP-style K-shortest-paths where each path becomes
// one independent subflow demand), capacities via lp::LinkIndex, and the
// FCT vectors it emits plug into the same bench/common.hpp summaries as
// the packet engine.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fsim/max_min.hpp"
#include "lp/link_index.hpp"
#include "routing/path.hpp"
#include "routing/route_cache.hpp"
#include "telemetry/telemetry.hpp"
#include "topo/parallel.hpp"
#include "util/enum_names.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pnet::fsim {

/// Path selection schemes mirrored from core::RoutingPolicy. Kept separate
/// so fsim does not depend on the packet-sim layers core:: pulls in.
enum class RouteScheme : std::uint8_t {
  /// Hash the flow onto one plane, then onto one equal-cost shortest path
  /// inside it (what switch ECMP does to a TCP flow). One subflow.
  kEcmpPlaneHash,
  /// Single path on the plane with the fewest hops (the low-latency
  /// interface of paper section 3.4).
  kShortestPlane,
  /// MPTCP over the K globally-shortest paths across planes: one fluid
  /// subflow per path, each an independent max-min demand (EWTCP-like
  /// uncoupled sharing; see DESIGN.md for the divergence from LIA).
  kKspMultipath,
};

[[nodiscard]] const char* to_string(RouteScheme scheme);
/// The scheme-name table, so benches and controller ablation configs name
/// fluid schemes identically.
[[nodiscard]] util::EnumNames<RouteScheme> name_table(RouteScheme);

struct FsimConfig {
  RouteScheme scheme = RouteScheme::kEcmpPlaneHash;
  /// Multipath degree for kKspMultipath.
  int k = 4;
  /// Cap on enumerated equal-cost paths per plane for kEcmpPlaneHash.
  int ecmp_path_cap = 64;
};

/// The paths a flow with `flow_key` uses under `config`. Exposed so tests
/// and benches can pin the exact same paths into the packet simulator or
/// the LP solver that the fluid simulator will use. The candidate sets
/// (KSP pools, ECMP enumerations, per-plane shortest) depend only on the
/// (src, dst) pair — KSP tie-break jitter is seeded per pair, not per flow —
/// so the simulator memoizes them in a routing::RouteCache; only the
/// per-flow hash picks vary with `flow_key`.
std::vector<routing::Path> choose_paths(const topo::ParallelNetwork& net,
                                        const FsimConfig& config, HostId src,
                                        HostId dst, std::uint64_t flow_key);

struct FlowSpec {
  HostId src{0};
  HostId dst{0};
  std::uint64_t bytes = 0;
  SimTime start = 0;
};

struct FlowResult {
  HostId src{0};
  HostId dst{0};
  std::uint64_t bytes = 0;
  SimTime start = 0;
  SimTime end = 0;
  int subflows = 1;
  /// Links of the first path (the latency-relevant hop count), matching
  /// sim::FlowRecord::hops.
  int hops = 0;

  [[nodiscard]] double fct_us() const {
    return units::to_microseconds(end - start);
  }
};

class FluidSimulator {
 public:
  /// `cache` (optional) shares one compiled route store with other
  /// simulators/trials; by default the simulator owns a private cache.
  explicit FluidSimulator(const topo::ParallelNetwork& net,
                          FsimConfig config = {},
                          std::shared_ptr<routing::RouteCache> cache =
                              nullptr);

  /// Queues a flow; paths are chosen by the configured scheme using a
  /// per-flow key (the flow's arrival index). `start` must be >= now().
  void add_flow(const FlowSpec& spec);
  /// Queues a flow pinned to explicit paths (one subflow per path), for
  /// cross-validation runs that must share exact paths with sim/ or lp/.
  void add_flow(const FlowSpec& spec, std::vector<routing::Path> paths);

  /// Runs until every queued flow has completed (or nothing can progress).
  void run();
  /// Runs events up to and including `deadline`, leaving rates settled.
  void run_until(SimTime deadline);

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] int num_planes() const { return net_.num_planes(); }
  [[nodiscard]] const std::vector<FlowResult>& results() const {
    return results_;
  }
  /// Flow completion times in microseconds (same unit as
  /// sim::FlowLogger::fct_us) for bench/common.hpp summaries.
  [[nodiscard]] std::vector<double> fct_us() const;

  // Steady-state probes, valid after run/run_until (rates are settled).
  [[nodiscard]] int active_flows() const {
    return static_cast<int>(active_.size());
  }
  /// Per-active-flow allocated rate (subflow rates summed), bits/second.
  [[nodiscard]] std::vector<double> active_rates_bps() const;
  [[nodiscard]] double total_rate_bps() const;
  [[nodiscard]] double min_rate_bps() const;
  /// Fluid bytes drained so far across all flows, complete and partial.
  [[nodiscard]] double delivered_bytes() const { return delivered_bytes_; }
  /// Flow admissions + completions processed — the fluid engine's
  /// "events", feeding the experiment runner's events/sec metric.
  [[nodiscard]] std::uint64_t events() const { return events_; }

  /// Allocated rate summed over subflows riding `plane` (the fluid analog
  /// of the packet sim's per-plane link utilization).
  [[nodiscard]] double plane_rate_bps(int plane) const;

  /// Wires counters, the sampler, and flow trace events. Call before
  /// add_flow/run — sampler series register here and the grid starts at
  /// now(). The sampler advances at allocation-epoch boundaries (grid
  /// points become events, so rate buckets are exact); sampling stops once
  /// the simulation drains. The allocator's water-fills, warm water-fills
  /// and fast paths are published as counters (`water_fills`,
  /// `warm_water_fills`, `fast_paths`) each time run()/run_until()
  /// returns. `telemetry` must outlive the simulator; null detaches (the
  /// default zero-cost path).
  void set_telemetry(telemetry::Telemetry* telemetry);

  /// Attaches a cooperative-cancellation token: run()/run_until() return
  /// early (partially drained) once it fires, and the max-min water-fill
  /// abandons its solve. Must outlive the simulator; nullptr detaches.
  void set_cancel(const util::CancelToken* cancel) {
    cancel_ = cancel;
    alloc_.set_cancel(cancel);
  }

  /// Attaches an invariant auditor: every re-solve is checked for max-min
  /// optimality (fsim::audit_max_min: feasible, and every subflow has a
  /// bottleneck link) and every active flow for a non-negative fluid
  /// residual. nullptr detaches.
  void set_audit(util::Audit* audit) { audit_ = audit; }

  [[nodiscard]] const MaxMinAllocator& allocator() const { return alloc_; }
  [[nodiscard]] const lp::LinkIndex& index() const { return index_; }
  /// Route-cache counters (hits/misses/compute time) for reports.
  [[nodiscard]] const routing::RouteCache& route_cache() const {
    return *cache_;
  }

  // --- Fabric faults (the fluid analog of sim::FaultInjector) -----------
  //
  // A failed plane has every link's capacity zeroed: subflows crossing it
  // freeze at rate 0 in the next water-fill (they starve, they are not
  // dropped) and thaw when capacity returns. Fabric events are
  // unconditional event-loop candidates, so a fully-starved simulation
  // still reaches its recovery times.

  struct FabricEvent {
    SimTime at = 0;
    int plane = -1;
    bool down = false;
  };
  using FabricListener = std::function<void(const FabricEvent&)>;

  /// Schedules plane `plane` down at `at` and (when `until` > `at`) back up
  /// at `until`; `until` <= `at` means the failure is permanent. Call
  /// before or between runs; events already in the past apply at the next
  /// loop step.
  void fail_plane(SimTime at, SimTime until, int plane);
  /// Observer fired on the simulation thread as each fabric event applies
  /// (control::LinkStateBus subscribes here). Null detaches.
  void set_fault_listener(FabricListener listener) {
    fault_listener_ = std::move(listener);
  }
  /// Physical plane state as of now() (capacity zeroed or not).
  [[nodiscard]] bool plane_down(int plane) const {
    return plane_phys_down_[static_cast<std::size_t>(plane)];
  }

  // --- Control-plane actuators (src/control) ----------------------------
  //
  // All of these are inert until first used, keeping controller-off runs
  // byte-identical to the pre-controller simulator.

  /// Masks a plane out of (or back into) new-flow routing. Only affects
  /// simulator-internal routing (route()), not the free choose_paths().
  void set_plane_usable(int plane, bool usable);
  /// Biases the kEcmpPlaneHash plane pick: plane p drawn with probability
  /// weight[p] / sum over unmasked planes. Empty restores uniform.
  void set_plane_weights(std::vector<double> weights);
  /// Moves up to `max_flows` active single-subflow flows off `from_plane`
  /// onto an equal-cost path of `to_plane` (creation order, deterministic
  /// repin-sequence path hash). Returns how many moved.
  int repin_flows(int from_plane, int to_plane, int max_flows);
  /// Installs the control loop: `tick(t)` runs at every multiple of
  /// `cadence` after now(), as long as any flow is active or pending —
  /// including fully-starved flows the controller may be about to
  /// evacuate. Decisions inside the tick see post-fabric-event state.
  void set_control(SimTime cadence, std::function<void(SimTime)> tick);
  /// Turns on per-plane delivered-byte attribution (drained bytes split
  /// across subflows proportional to their allocated rates). Off by
  /// default: the accounting adds a per-drain pass.
  void enable_plane_accounting();
  /// Bytes delivered over `plane` since enable_plane_accounting().
  [[nodiscard]] double plane_delivered_bytes(int plane) const {
    return plane_bytes_.empty()
               ? 0.0
               : plane_bytes_[static_cast<std::size_t>(plane)];
  }
  /// Plane of every active subflow, in flow-creation order (tests:
  /// "no flow pinned to a dead plane after the detection delay").
  [[nodiscard]] std::vector<int> active_subflow_planes() const;

 private:
  struct Active {
    FlowSpec spec;
    double remaining_bytes = 0.0;
    double rate_bps = 0.0;
    std::vector<int> sub_ids;
    /// Plane of each subflow, aligned with sub_ids (plane_rate_bps).
    std::vector<int> planes;
    int hops = 0;
  };
  struct Pending {
    FlowSpec spec;
    /// Routing key drawn at add_flow (insertion order); routing itself is
    /// deferred to admission so the controller's placement bias sees the
    /// fabric state at start time. With no bias and no faults the deferred
    /// route() is the same pure function of (net, key) — byte-identical to
    /// routing eagerly.
    std::uint64_t key = 0;
    bool needs_route = false;
    /// Cached routing: the interned candidate set plus the per-flow picks
    /// into it (no Path copies). Used when `snapshot` is set.
    std::optional<routing::RouteSnapshot> snapshot;
    std::vector<std::uint32_t> picks;
    /// Explicit-path API (cross-validation runs): owned copies.
    std::vector<routing::Path> paths;

    [[nodiscard]] bool routed() const {
      return snapshot.has_value() ? !picks.empty() : !paths.empty();
    }
    [[nodiscard]] std::size_t num_paths() const {
      return snapshot.has_value() ? picks.size() : paths.size();
    }
    [[nodiscard]] routing::PathView path(std::size_t i) const {
      return snapshot.has_value()
                 ? snapshot->view(picks[i])
                 : routing::PathView(paths[i]);
    }
  };

  void settle();  // re-solve + refresh per-flow rates if needed
  void route(Pending& pending, std::uint64_t flow_key);
  void admit(Pending&& pending);
  void complete(std::size_t slot);
  void drain(SimTime dt);
  void apply_fabric_events();  // every scheduled event with at <= now()
  /// True once any mask/weight actuator has engaged (bias path in route()).
  [[nodiscard]] bool routing_bias_active() const;

  const topo::ParallelNetwork& net_;
  FsimConfig config_;
  std::shared_ptr<routing::RouteCache> cache_;
  lp::LinkIndex index_;
  MaxMinAllocator alloc_;

  std::vector<Pending> pending_;  // min-heap on spec.start
  std::vector<Active> active_;
  std::vector<FlowResult> results_;
  SimTime now_ = 0;
  std::uint64_t next_key_ = 0;
  double delivered_bytes_ = 0.0;
  std::uint64_t events_ = 0;
  bool rates_stale_ = false;
  telemetry::Telemetry* telemetry_ = nullptr;
  const util::CancelToken* cancel_ = nullptr;
  util::Audit* audit_ = nullptr;
  std::uint64_t loop_iters_ = 0;  // run_until cancel-poll stride counter
  // Fabric faults: time-sorted schedule, applied cursor, physical state.
  std::vector<FabricEvent> fabric_;
  std::size_t fabric_next_ = 0;
  std::vector<bool> plane_phys_down_;
  std::vector<double> base_capacity_;  // pre-fault capacities, lazily saved
  FabricListener fault_listener_;
  // Control-plane state (all inert until the actuators are used).
  std::vector<bool> plane_masked_;
  std::vector<double> plane_weights_;
  SimTime control_cadence_ = 0;
  SimTime next_control_ = 0;
  std::function<void(SimTime)> control_tick_;
  std::vector<double> plane_bytes_;  // empty = plane accounting disabled
  std::uint64_t repin_seq_ = 0;
  // Cached handles so the admit/complete hot paths skip name lookups.
  telemetry::Registry::Counter flows_started_counter_;
  telemetry::Registry::Counter flows_finished_counter_;
  // The allocator's water-fills, warm ones and fast paths, published as
  // deltas when run_until returns.
  telemetry::Registry::Counter water_fills_counter_;
  telemetry::Registry::Counter warm_water_fills_counter_;
  telemetry::Registry::Counter fast_paths_counter_;
  std::int64_t published_water_fills_ = 0;
  std::int64_t published_warm_water_fills_ = 0;
  std::int64_t published_fast_paths_ = 0;
};

}  // namespace pnet::fsim
