// Instantiates the simulation objects for a ParallelNetwork (one Queue +
// Pipe per directed link per plane) and builds source routes from routing
// Paths. FlowFactory creates TCP/MPTCP endpoints wired over those routes,
// reports completions to a FlowLogger, and recycles a finished flow's
// endpoints and routes once none of its packets is in flight (DESIGN.md
// §5h).
#pragma once

#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "routing/path.hpp"
#include "sim/mptcp.hpp"
#include "sim/pipe.hpp"
#include "sim/queue.hpp"
#include "sim/route_arena.hpp"
#include "sim/shard.hpp"
#include "sim/tcp.hpp"
#include "telemetry/telemetry.hpp"
#include "topo/parallel.hpp"

namespace pnet::sim {

struct SimConfig {
  /// Per-port buffering; default 100 MTU-sized packets, the usual htsim
  /// shallow-buffer datacenter setting.
  std::uint64_t queue_buffer_bytes = 100 * 1500;
  /// ECN marking threshold per port (0 disables). DCTCP's guidance is
  /// ~20% of a shallow buffer; pair with TcpParams::dctcp.
  std::uint64_t ecn_threshold_bytes = 0;
  /// Strict-priority service for ACKs at every port (common DC QoS).
  bool priority_acks = false;
  /// NDP-style cut-payload: overloaded ports trim data packets to headers
  /// (forwarded at priority) instead of dropping; receivers NACK and the
  /// sender retransmits immediately — the §6.5 incast-aware fabric option.
  bool trim_to_header = false;
  TcpParams tcp;
};

class SimNetwork {
 public:
  /// Each link's queue binds to its owner shard — the shard of the link's
  /// source node: host links to the host's shard, switch links to the
  /// plane's — and a link whose ends sit on different shards propagates
  /// through a BoundaryPipe instead of a Pipe. `events` is the control
  /// queue; fault trace events are stamped with its clock.
  SimNetwork(EventQueue& events, const topo::ParallelNetwork& net,
             const SimConfig& config, ShardSet& shards);

  [[nodiscard]] const topo::ParallelNetwork& net() const { return net_; }
  [[nodiscard]] const SimConfig& config() const { return config_; }
  [[nodiscard]] ShardSet& shards() { return shards_; }

  [[nodiscard]] Queue& queue(int plane, LinkId link) {
    return *queues_[static_cast<std::size_t>(plane)]
                   [static_cast<std::size_t>(link.v)];
  }

  /// Builds a forwarding chain along `path`, ending at `endpoint`, interned
  /// into this network's route arena (stable address until released).
  const Route* make_route(const routing::Path& path, PacketSink& endpoint);
  /// The ACK chain of `path`, ending at `endpoint`: the duplex twins of its
  /// links in reverse order.
  const Route* make_reverse_route(const routing::Path& path,
                                  PacketSink& endpoint);
  /// Hands a chain back to the arena once nothing can reach it.
  void release_route(const Route* route) { routes_.release(route); }

  /// The arena backing make_route (allocation diagnostics).
  [[nodiscard]] const RouteArena& routes() const { return routes_; }

  /// Total tail-drops across every queue (Fig 11c's retransmit driver).
  [[nodiscard]] std::uint64_t total_drops() const;
  /// Total ECN CE marks across every queue.
  [[nodiscard]] std::uint64_t total_ecn_marks() const;
  /// Bytes currently buffered across every queue — the fabric-wide queue
  /// depth gauge of the telemetry sampler.
  [[nodiscard]] std::uint64_t total_queued_bytes() const;
  /// The deepest single queue right now (incast hotspot indicator).
  [[nodiscard]] std::uint64_t max_queued_bytes() const;
  /// Cumulative wire bytes forwarded by `plane`'s queues — per-plane link
  /// utilization, sampled as a rate by the telemetry layer.
  [[nodiscard]] std::uint64_t plane_forwarded_bytes(int plane) const;
  /// Bytes currently buffered in `plane`'s queues (data + ACK) — the
  /// per-plane queue-depth gauge the control plane reads.
  [[nodiscard]] std::uint64_t plane_queued_bytes(int plane) const;
  /// Out-of-range queue configuration calls clamped (see
  /// Queue::set_loss_rate / set_rate_scale) across every queue.
  [[nodiscard]] std::uint64_t total_config_clamped() const;

  /// Directed links across all planes (== number of queues/pipes).
  [[nodiscard]] std::size_t total_links() const {
    return queue_stats_.size();
  }
  /// The dense per-queue counter blocks, one slot per directed link in
  /// plane order (the struct-of-arrays behind every total_* accessor).
  [[nodiscard]] const std::vector<QueueStats>& queue_stats() const {
    return queue_stats_;
  }

  /// Wires fault-transition trace events (plane fail/recover, cable
  /// degrade/restore) into `trace`; nullptr detaches. All fault entry
  /// points funnel through this network, so this one hook covers every
  /// fabric fault.
  void set_trace(telemetry::Trace* trace) { trace_ = trace; }

  /// Attaches an invariant auditor to every queue (per-enqueue occupancy
  /// checks); nullptr detaches.
  void set_audit(util::Audit* audit);
  /// End-of-trial conservation sweep: audit_check on every queue.
  void audit_check(util::Audit& audit) const;

  /// Fails (or repairs) every link of one dataplane — the whole-plane
  /// outage the paper's §3.4 link-status detection reacts to. Idempotent:
  /// repeating the same state is a no-op. A plane outage leaves cable
  /// degradation alone, so a cable degraded at loss 1 (a dead cable)
  /// stays dead across a plane flap.
  void set_plane_failed(int plane, bool failed);
  [[nodiscard]] bool plane_failed(int plane) const {
    return plane_failed_[static_cast<std::size_t>(plane)] != 0;
  }
  /// Fail->up transitions actually applied (flap-safety diagnostics; a
  /// redundant set_plane_failed(true) does not bump it).
  [[nodiscard]] int plane_fail_transitions() const {
    return plane_fail_transitions_;
  }

  /// Degrades both directions of a cable: random drop probability and/or a
  /// reduced service rate. `loss_rate=0, rate_scale=1` restores it;
  /// `loss_rate=1` models a dead cable.
  void set_cable_degraded(int plane, LinkId link, double loss_rate,
                          double rate_scale = 1.0);

 private:
  /// Appends link `link`'s queue and propagation stage to route_scratch_.
  void push_hop(int plane, LinkId link);
  /// The shard that owns `node`'s side of plane `plane`.
  [[nodiscard]] std::size_t shard_of(int plane, NodeId node) const;

  EventQueue& events_;  // fault trace events stamp with the current time
  const topo::ParallelNetwork& net_;
  SimConfig config_;
  ShardSet& shards_;
  std::vector<std::vector<std::unique_ptr<Queue>>> queues_;  // [plane][link]
  /// The propagation stage of each link: a Pipe, or a BoundaryPipe when
  /// the link crosses shards. Parallel to queues_.
  std::vector<std::vector<std::unique_ptr<PacketSink>>> stages_;
  /// Dense per-queue counters in plane-major link order; sized once in the
  /// constructor (queues hold raw pointers into it) and never resized.
  std::vector<QueueStats> queue_stats_;
  /// queue_stats_ index of plane p's first link (num_planes + 1 entries).
  std::vector<std::size_t> stats_offset_;
  RouteArena routes_;
  /// Reused chain-building scratch for make_route.
  std::vector<PacketSink*> route_scratch_;
  std::vector<char> plane_failed_;
  int plane_fail_transitions_ = 0;
  telemetry::Trace* trace_ = nullptr;
};

/// One completed transport flow, as logged for analysis.
struct FlowRecord {
  FlowId id;
  HostId src;
  HostId dst;
  std::uint64_t bytes = 0;
  SimTime start = 0;
  SimTime end = 0;
  /// Links traversed by the (first) path; the latency-relevant hop count.
  int hops = 0;
  int subflows = 1;
  int retransmits = 0;
  int timeouts = 0;
  /// Times the flow was moved to a fresh path by the failover machinery.
  int repaths = 0;
  /// Bytes actually delivered to the receiver. Equals `bytes` for completed
  /// flows; the partial progress for flows finalized mid-transfer.
  std::uint64_t delivered_bytes = 0;
  /// False for records emitted by FlowFactory::finalize — the flow was
  /// still active when the harness stopped.
  bool completed = true;
};

class FlowLogger {
 public:
  void record(const FlowRecord& r) { records_.push_back(r); }
  [[nodiscard]] const std::vector<FlowRecord>& records() const {
    return records_;
  }
  /// Flow completion times in microseconds, one per completed record
  /// (finalized-incomplete flows have no FCT and are skipped).
  [[nodiscard]] std::vector<double> fct_us() const;
  [[nodiscard]] int total_retransmits() const;
  [[nodiscard]] int total_timeouts() const;
  void clear() { records_.clear(); }

  /// CSV dump (header + one row per flow) for external plotting, matching
  /// the artifact's workflow of post-processing simulator output.
  void write_csv(std::ostream& out) const;

 private:
  std::vector<FlowRecord> records_;
};

class FlowFactory {
 public:
  using FlowCallback = std::function<void(const FlowRecord&)>;
  /// Picks replacement paths for a live flow whose current path (on
  /// `suspect_plane`) looks dead. Returning empty keeps the old path.
  using RepathProvider = std::function<std::vector<routing::Path>(
      HostId src, HostId dst, int suspect_plane, std::uint64_t bytes)>;

  /// Each transport endpoint binds to its host's shard of the network
  /// (sources and MPTCP connections to the sender's, sinks to the
  /// receiver's); completion/repath callbacks that fire while the shards
  /// run are parked via ShardSet::defer until the next barrier, and
  /// finished flows retire at the barriers (see endpoint_slots). `events`
  /// is the control queue.
  FlowFactory(EventQueue& events, SimNetwork& network, FlowLogger& logger);
  ~FlowFactory();
  FlowFactory(const FlowFactory&) = delete;
  FlowFactory& operator=(const FlowFactory&) = delete;

  /// Enables transport-driven failover: every subsequent single-path TCP
  /// flow gets a repath callback that asks `provider` for fresh paths when
  /// its path turns suspect (consecutive RTOs) or its plane is reported
  /// down. Typically wired by core::PathSelector::enable_repath.
  void set_repath_provider(RepathProvider provider) {
    repath_provider_ = std::move(provider);
  }

  /// Host-side link-status reaction (§3.4), called by core::HealthMonitor
  /// once the fault has propagated: live single-path flows routed over
  /// `plane` repath immediately; MPTCP subflows on it are abandoned and
  /// their bytes reinjected through surviving subflows.
  void on_plane_failed(int plane);
  /// The recovery half: revives abandoned MPTCP subflows whose path rides
  /// `plane` instead of leaving them dead forever.
  void on_plane_recovered(int plane);

  /// Asks the caller for a replacement path for one flow being re-pinned;
  /// an empty result skips that flow. Typically
  /// core::PathSelector::repin bound to a target plane.
  using RepinPick = std::function<std::vector<routing::Path>(
      HostId src, HostId dst, std::uint64_t bytes)>;
  /// Control-plane actuator: moves up to `max_flows` live single-path TCP
  /// flows riding `from_plane` onto whatever path `pick` returns for them,
  /// in flow-creation order. Only flows created after
  /// set_repath_provider() are movable (repath metadata exists only then).
  /// Must run on the coordinator thread — from a control-queue event at a
  /// barrier epoch, exactly where the controller tick runs. Returns how
  /// many flows moved.
  int repin_flows(int from_plane, int max_flows, const RepinPick& pick);
  /// Plane of every live (incomplete, repath-tracked) single-path TCP
  /// flow, in creation order — test probe for repin-under-fault-storm.
  [[nodiscard]] std::vector<int> live_tcp_planes() const;

  /// Cumulative bytes delivered (acked) across all flows, complete and in
  /// flight — the goodput numerator sampled by analysis::GoodputProbe.
  [[nodiscard]] std::uint64_t total_delivered_bytes() const;

  /// Flows launched but not yet completed (the sampler's active-flow gauge).
  [[nodiscard]] int active_flows() const {
    return next_flow_id_ - flows_finished_;
  }

  /// Wires flow lifecycle counters ("flows_started", "flows_finished",
  /// "repaths", "finalized_flows") and trace events ("flow_start" instants,
  /// "flow" spans, "repath" instants) into `telemetry`; nullptr detaches.
  void set_telemetry(telemetry::Telemetry* telemetry);

  /// Logs partial FlowRecords (completed=false, end=at) for every flow
  /// still active, so FlowLogger sees each launched flow exactly once.
  /// Idempotent per flow; call once after the final run_until. Returns the
  /// number of flows finalized.
  int finalize(SimTime at);

  /// Single-path TCP flow; returns the source endpoint. The reference
  /// stays valid until a later flow reuses the slot, which can happen only
  /// after this flow completes and none of its packets is in flight.
  TcpSrc& tcp_flow(HostId src, HostId dst, const routing::Path& path,
                   std::uint64_t bytes, SimTime start,
                   FlowCallback on_complete = {});

  /// MPTCP flow with one subflow per path; the reference is valid for as
  /// long as tcp_flow's.
  MptcpConnection& mptcp_flow(HostId src, HostId dst,
                              const std::vector<routing::Path>& paths,
                              std::uint64_t bytes, SimTime start,
                              FlowCallback on_complete = {},
                              Coupling coupling = Coupling::kLia);

  [[nodiscard]] int flows_created() const { return next_flow_id_; }

  /// Endpoint slots constructed across every shard's pools: one per
  /// TcpSrc, TcpSink and MptcpConnection slot. A flow hands its slots back
  /// at the first barrier after it completed with none of its packets in
  /// flight and no wake-up that would act, so this tracks the flows live
  /// or draining at once, not every flow created.
  [[nodiscard]] std::size_t endpoint_slots() const;
  /// Most flows live or draining (created, not yet retired) at once.
  [[nodiscard]] int peak_held_flows() const { return peak_held_flows_; }

  /// Diagnostic: transport endpoints that have not completed yet, in
  /// creation order. Useful when an experiment's event queue drains
  /// unexpectedly early.
  [[nodiscard]] std::vector<const TcpSrc*> incomplete_tcp_flows() const;
  [[nodiscard]] std::vector<const MptcpConnection*> incomplete_mptcp_flows()
      const;

 private:
  FlowId next_id() { return FlowId{next_flow_id_++}; }

  /// Grows the shard event queues' reservation ahead of demand as transport
  /// endpoints are created, so the steady state stays allocation-free
  /// (SimHarness::audit_check treats regrowth as a violation).
  void reserve_events(int new_endpoints);

  /// Launch-time facts about one flow, kept so finalize() can synthesize a
  /// partial record for flows that never complete.
  struct LaunchInfo {
    FlowId id;
    HostId src;
    HostId dst;
    std::uint64_t bytes = 0;
    SimTime start = 0;
    int hops = 0;
    bool finalized = false;
  };

  /// What both flow kinds keep besides their endpoints. A flow's slot
  /// lives in its sender shard's pool; pending wake-ups point into it, so
  /// it never moves or dies while the factory lives, and a retired slot
  /// is re-constructed in place for a later flow of the same shard.
  struct FlowSlot {
    LaunchInfo info;
    FlowCallback on_complete;
    /// Every chain interned for the flow, repaths included; released to
    /// the arena when the flow retires.
    std::vector<const Route*> routes;
    /// Links of the live list (creation order) while not retired.
    FlowSlot* prev = nullptr;
    FlowSlot* next = nullptr;
  };

  /// One single-path TCP flow. The sink lives in the receiver shard's
  /// pool.
  struct TcpFlow : FlowSlot {
    TcpFlow(EventQueue& events, PacketPool& pool, FlowId id,
            const TcpParams& params)
        : source(events, pool, id, params) {}
    TcpSrc source;
    TcpSink* sink = nullptr;
    /// Repath bookkeeping: the plane the flow rides now, and whether it
    /// was created after set_repath_provider().
    int plane = -1;
    bool tracked = false;
  };

  /// One MPTCP flow; sinks[i] and planes[i] belong to subflow i.
  struct MptcpFlow : FlowSlot {
    MptcpFlow(EventQueue& events, PacketPool& pool, FlowId id,
              const TcpParams& params, std::uint64_t bytes,
              Coupling coupling)
        : connection(events, pool, id, params, bytes, coupling) {}
    MptcpConnection connection;
    std::vector<TcpSink*> sinks;
    std::vector<int> planes;
  };

  /// One shard's slots of one kind, and the retired ones free for reuse.
  template <class T>
  struct SlotPool {
    std::vector<std::unique_ptr<T>> slots;
    std::vector<T*> free;
  };
  struct ShardPools {
    SlotPool<TcpFlow> tcp;
    SlotPool<TcpSink> sinks;
    SlotPool<MptcpFlow> mptcp;
  };

  /// Flows not yet retired, in creation order: O(1) append and unlink.
  struct LiveList {
    FlowSlot* head = nullptr;
    FlowSlot* tail = nullptr;
    void push_back(FlowSlot* flow);
    void erase(FlowSlot* flow);
  };
  template <class T, class Fn>
  static void for_each_live(const LiveList& list, Fn&& fn) {
    for (FlowSlot* f = list.head; f != nullptr; f = f->next) {
      fn(static_cast<T&>(*f));
    }
  }

  TcpFlow& acquire_tcp(HostId src, FlowId id);
  TcpSink& acquire_sink(HostId dst, FlowId id);
  MptcpFlow& acquire_mptcp(HostId src, FlowId id, std::uint64_t bytes,
                           Coupling coupling);
  /// Fills the shared part of a freshly acquired slot and links it live.
  void launch(FlowSlot& flow, LiveList& live, const LaunchInfo& info,
              FlowCallback on_complete);

  /// Barrier hook: retires every completed flow with no packet in flight
  /// and idle sources. Runs after the deferred drain, so a repath closure
  /// parked for a flow always runs before its slot can be reused.
  void retire_drained();
  void retire(TcpFlow& flow);
  void retire(MptcpFlow& flow);
  /// Releases the flow's chains and unlinks it from `live`.
  void release(FlowSlot& flow, LiveList& live);

  void note_started(const LaunchInfo& info);
  void note_finished(const FlowRecord& r);

  /// Routes a completion record to the logger/telemetry/user callback —
  /// immediately on the coordinator, or parked at the next barrier when
  /// called from a shard's run phase (on the sender's shard) — and queues
  /// the flow on `draining` for retirement.
  template <class Flow>
  void deliver_record(const FlowRecord& record, Flow& flow,
                      std::vector<Flow*>& draining);

  /// Builds the replacement route pair (or nullptr when the provider has
  /// nowhere better) and updates the flow's plane + the sink's ACK route.
  const Route* repath(TcpFlow& flow);
  /// Interns `path`'s data chain to the sink and its ACK chain to
  /// `source`, points the sink's ACK route at the latter and returns the
  /// former; both are released when the flow retires.
  const Route* wire(FlowSlot& flow, const routing::Path& path,
                    TcpSink& sink, TcpSrc& source);

  EventQueue& events_;
  SimNetwork& network_;
  ShardSet& shards_;
  FlowLogger& logger_;
  /// Transport endpoints created so far (TcpSrc + MPTCP subflows), the
  /// scaling term of reserve_events' pending-event bound: retired flows'
  /// stale wake-ups still hold queue entries.
  std::size_t endpoints_ = 0;
  int next_flow_id_ = 0;
  int flows_finished_ = 0;
  int flows_retired_ = 0;
  int peak_held_flows_ = 0;
  /// Bytes delivered by retired flows (their share of
  /// total_delivered_bytes; live flows are summed on demand).
  std::uint64_t retired_delivered_ = 0;
  RepathProvider repath_provider_;
  telemetry::Telemetry* telemetry_ = nullptr;

  std::vector<ShardPools> pools_;  // one per shard
  LiveList tcp_live_;
  LiveList mptcp_live_;
  /// Completed flows waiting for their last packets to land or drop.
  std::vector<TcpFlow*> tcp_draining_;
  std::vector<MptcpFlow*> mptcp_draining_;
};

}  // namespace pnet::sim
