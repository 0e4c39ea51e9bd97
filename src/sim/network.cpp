#include "sim/network.hpp"

#include <algorithm>
#include <memory>

#include "util/rng.hpp"

namespace pnet::sim {

SimNetwork::SimNetwork(EventQueue& events, const topo::ParallelNetwork& net,
                       const SimConfig& config, ShardSet& shards)
    : events_(events), net_(net), config_(config), shards_(shards) {
  queues_.resize(static_cast<std::size_t>(net.num_planes()));
  stages_.resize(static_cast<std::size_t>(net.num_planes()));
  // Size the dense counter array up front: queues keep raw pointers into
  // it, so it must never reallocate after this.
  stats_offset_.reserve(static_cast<std::size_t>(net.num_planes()) + 1);
  stats_offset_.push_back(0);
  for (int p = 0; p < net.num_planes(); ++p) {
    stats_offset_.push_back(
        stats_offset_.back() +
        static_cast<std::size_t>(net.plane(p).graph.num_links()));
  }
  queue_stats_.resize(stats_offset_.back());
  for (int p = 0; p < net.num_planes(); ++p) {
    const topo::Graph& g = net.plane(p).graph;
    auto& qs = queues_[static_cast<std::size_t>(p)];
    auto& stages = stages_[static_cast<std::size_t>(p)];
    qs.reserve(static_cast<std::size_t>(g.num_links()));
    stages.reserve(static_cast<std::size_t>(g.num_links()));
    for (int l = 0; l < g.num_links(); ++l) {
      const topo::Link& link = g.link(LinkId{l});
      QueueStats* stats =
          &queue_stats_[stats_offset_[static_cast<std::size_t>(p)] +
                        static_cast<std::size_t>(l)];
      // A link belongs to the shard of its source node.
      const std::size_t owner = shard_of(p, link.src);
      const std::size_t dst_owner = shard_of(p, link.dst);
      Shard& shard = shards_.shard(owner);
      qs.push_back(std::make_unique<Queue>(shard.events, shard.pool,
                                           link.rate_bps,
                                           config.queue_buffer_bytes,
                                           config.ecn_threshold_bytes,
                                           config.priority_acks,
                                           config.trim_to_header, stats));
      // Per-queue loss streams are seeded from the (plane, link) identity
      // so degraded-link drops are independent across ports yet replay
      // bit-identically from the same fault plan.
      qs.back()->reseed_loss_rng(
          mix64((static_cast<std::uint64_t>(p) << 32) ^
                static_cast<std::uint64_t>(static_cast<std::uint32_t>(l))));
      if (g.is_host(link.src) || g.is_host(link.dst)) {
        shards_.note_host_link(link.latency);
      }
      if (owner != dst_owner) {
        // Crossing link: the propagation delay rides the handoff itself,
        // which is what gives the barrier its lookahead.
        stages.push_back(
            std::make_unique<BoundaryPipe>(shard, dst_owner, link.latency));
      } else {
        stages.push_back(std::make_unique<Pipe>(shard.events, link.latency));
      }
    }
  }
  plane_failed_.assign(static_cast<std::size_t>(net.num_planes()), 0);
}

std::size_t SimNetwork::shard_of(int plane, NodeId node) const {
  const topo::Graph& g = net_.plane(plane).graph;
  return g.is_host(node) ? shards_.shard_of_host(g.node(node).host)
                         : shards_.shard_of_plane(plane);
}

void SimNetwork::push_hop(int plane, LinkId link) {
  route_scratch_.push_back(&queue(plane, link));
  route_scratch_.push_back(
      stages_[static_cast<std::size_t>(plane)][static_cast<std::size_t>(link.v)]
          .get());
}

const Route* SimNetwork::make_route(const routing::Path& path,
                                    PacketSink& endpoint) {
  route_scratch_.clear();
  for (const LinkId id : path.links) push_hop(path.plane, id);
  route_scratch_.push_back(&endpoint);
  return routes_.intern(route_scratch_, path.hops());
}

const Route* SimNetwork::make_reverse_route(const routing::Path& path,
                                            PacketSink& endpoint) {
  const topo::Graph& g = net_.plane(path.plane).graph;
  route_scratch_.clear();
  for (auto it = path.links.rbegin(); it != path.links.rend(); ++it) {
    push_hop(path.plane, g.reverse(*it));
  }
  route_scratch_.push_back(&endpoint);
  return routes_.intern(route_scratch_, path.hops());
}

std::uint64_t SimNetwork::total_drops() const {
  std::uint64_t total = 0;
  for (const QueueStats& s : queue_stats_) total += s.drops;
  return total;
}

std::uint64_t SimNetwork::total_ecn_marks() const {
  std::uint64_t total = 0;
  for (const QueueStats& s : queue_stats_) total += s.ecn_marks;
  return total;
}

std::uint64_t SimNetwork::total_queued_bytes() const {
  std::uint64_t total = 0;
  for (const QueueStats& s : queue_stats_) {
    total += s.queued_bytes + s.ack_queued_bytes;
  }
  return total;
}

std::uint64_t SimNetwork::max_queued_bytes() const {
  std::uint64_t max = 0;
  for (const QueueStats& s : queue_stats_) {
    max = std::max(max, s.queued_bytes + s.ack_queued_bytes);
  }
  return max;
}

std::uint64_t SimNetwork::total_config_clamped() const {
  std::uint64_t total = 0;
  for (const QueueStats& s : queue_stats_) total += s.config_clamped;
  return total;
}

void SimNetwork::set_audit(util::Audit* audit) {
  for (int p = 0; p < net_.num_planes(); ++p) {
    const topo::Graph& g = net_.plane(p).graph;
    for (int l = 0; l < g.num_links(); ++l) {
      // Queues audit into their owner shard's collecting auditor (a worker
      // thread must never touch the possibly fail-fast main one);
      // violations merge at ShardSet::collect_audit.
      util::Audit* owner =
          audit == nullptr
              ? nullptr
              : &shards_.shard(shard_of(p, g.link(LinkId{l}).src)).audit;
      queue(p, LinkId{l}).set_audit(owner);
    }
  }
}

void SimNetwork::audit_check(util::Audit& audit) const {
  for (std::size_t p = 0; p < queues_.size(); ++p) {
    for (std::size_t l = 0; l < queues_[p].size(); ++l) {
      queues_[p][l]->audit_check(audit, "queue[plane=" + std::to_string(p) +
                                            ",link=" + std::to_string(l) +
                                            "]");
    }
  }
}

std::uint64_t SimNetwork::plane_forwarded_bytes(int plane) const {
  const auto p = static_cast<std::size_t>(plane);
  std::uint64_t total = 0;
  for (std::size_t i = stats_offset_[p]; i < stats_offset_[p + 1]; ++i) {
    total += queue_stats_[i].forwarded_bytes;
  }
  return total;
}

std::uint64_t SimNetwork::plane_queued_bytes(int plane) const {
  const auto p = static_cast<std::size_t>(plane);
  std::uint64_t total = 0;
  for (std::size_t i = stats_offset_[p]; i < stats_offset_[p + 1]; ++i) {
    total += queue_stats_[i].queued_bytes + queue_stats_[i].ack_queued_bytes;
  }
  return total;
}

void SimNetwork::set_plane_failed(int plane, bool failed) {
  const auto p = static_cast<std::size_t>(plane);
  if ((plane_failed_[p] != 0) == failed) return;
  plane_failed_[p] = failed ? 1 : 0;
  if (failed) ++plane_fail_transitions_;
  for (auto& queue : queues_[p]) queue->set_failed(failed);
  PNET_TRACE_INSTANT(trace_, failed ? "plane_fail" : "plane_recover",
                     events_.now(), plane);
}

void SimNetwork::set_cable_degraded(int plane, LinkId link, double loss_rate,
                                    double rate_scale) {
  const LinkId rev = net_.plane(plane).graph.reverse(link);
  for (const LinkId id : {link, rev}) {
    queue(plane, id).set_loss_rate(loss_rate);
    queue(plane, id).set_rate_scale(rate_scale);
  }
  const bool degraded = loss_rate > 0.0 || rate_scale < 1.0;
  PNET_TRACE_INSTANT(trace_, degraded ? "cable_degrade" : "cable_restore",
                     events_.now(),
                     (static_cast<std::int64_t>(plane) << 32) |
                         static_cast<std::uint32_t>(link.v));
}

std::vector<double> FlowLogger::fct_us() const {
  std::vector<double> out;
  out.reserve(records_.size());
  for (const auto& r : records_) {
    if (!r.completed) continue;
    out.push_back(units::to_microseconds(r.end - r.start));
  }
  return out;
}

int FlowLogger::total_retransmits() const {
  int total = 0;
  for (const auto& r : records_) total += r.retransmits;
  return total;
}

int FlowLogger::total_timeouts() const {
  int total = 0;
  for (const auto& r : records_) total += r.timeouts;
  return total;
}

void FlowLogger::write_csv(std::ostream& out) const {
  out << "flow,src,dst,bytes,start_ps,end_ps,fct_us,hops,subflows,"
         "retransmits,timeouts,repaths,delivered,completed\n";
  for (const auto& r : records_) {
    out << r.id.v << ',' << r.src.v << ',' << r.dst.v << ',' << r.bytes
        << ',' << r.start << ',' << r.end << ','
        << units::to_microseconds(r.end - r.start) << ',' << r.hops << ','
        << r.subflows << ',' << r.retransmits << ',' << r.timeouts << ','
        << r.repaths << ',' << r.delivered_bytes << ','
        << (r.completed ? 1 : 0) << '\n';
  }
}

FlowFactory::FlowFactory(EventQueue& events, SimNetwork& network,
                         FlowLogger& logger)
    : events_(events), network_(network), shards_(network.shards()),
      logger_(logger), pools_(network.shards().size()) {
  shards_.set_barrier_hook([this] { retire_drained(); });
}

FlowFactory::~FlowFactory() { shards_.set_barrier_hook({}); }

void FlowFactory::LiveList::push_back(FlowSlot* flow) {
  flow->prev = tail;
  flow->next = nullptr;
  (tail == nullptr ? head : tail->next) = flow;
  tail = flow;
}

void FlowFactory::LiveList::erase(FlowSlot* flow) {
  (flow->prev == nullptr ? head : flow->prev->next) = flow->next;
  (flow->next == nullptr ? tail : flow->next->prev) = flow->prev;
  flow->prev = nullptr;
  flow->next = nullptr;
}

void FlowFactory::reserve_events(int new_endpoints) {
  endpoints_ += static_cast<std::size_t>(new_endpoints);
  // Bound on simultaneously pending events: one in-service completion per
  // queue, one delivery wake-up per pipe (2 * links), a start event plus a
  // short stack of stale RTO wake-ups per transport endpoint (arm_rto
  // leaves superseded wake-ups in the queue until they fire, and a retired
  // flow's stale wake-ups stay there too), and slack for the telemetry
  // driver, fault injector, and workload apps.
  const std::size_t bound =
      2 * network_.total_links() +
      static_cast<std::size_t>(network_.net().num_hosts()) +
      16 * endpoints_ + 64;
  // The shards split this pending set between their queues; each keeps the
  // global bound (cheap — it reserves address space, and only the entries
  // in use touch memory — and endpoints are not balanced across shards in
  // general). Endpoints never schedule on the control queue.
  shards_.request_capacity(bound);
}

FlowFactory::TcpFlow& FlowFactory::acquire_tcp(HostId src, FlowId id) {
  const std::size_t s = shards_.shard_of_host(src);
  Shard& shard = shards_.shard(s);
  SlotPool<TcpFlow>& pool = pools_[s].tcp;
  const TcpParams& params = network_.config().tcp;
  if (pool.free.empty()) {
    pool.slots.push_back(
        std::make_unique<TcpFlow>(shard.events, shard.pool, id, params));
    return *pool.slots.back();
  }
  TcpFlow& flow = *pool.free.back();
  pool.free.pop_back();
  // Re-construct the retired source in place. Wake-ups of the old flow may
  // still point at it, so it keeps its generation, which retirement
  // already moved past theirs.
  const std::uint32_t generation = flow.source.generation();
  std::destroy_at(&flow.source);
  std::construct_at(&flow.source, shard.events, shard.pool, id, params);
  flow.source.set_generation(generation);
  return flow;
}

TcpSink& FlowFactory::acquire_sink(HostId dst, FlowId id) {
  const std::size_t s = shards_.shard_of_host(dst);
  Shard& shard = shards_.shard(s);
  SlotPool<TcpSink>& pool = pools_[s].sinks;
  const TcpParams& params = network_.config().tcp;
  if (pool.free.empty()) {
    pool.slots.push_back(
        std::make_unique<TcpSink>(shard.events, shard.pool, params, id));
    return *pool.slots.back();
  }
  TcpSink& sink = *pool.free.back();
  pool.free.pop_back();
  std::destroy_at(&sink);
  std::construct_at(&sink, shard.events, shard.pool, params, id);
  return sink;
}

FlowFactory::MptcpFlow& FlowFactory::acquire_mptcp(HostId src, FlowId id,
                                                   std::uint64_t bytes,
                                                   Coupling coupling) {
  const std::size_t s = shards_.shard_of_host(src);
  Shard& shard = shards_.shard(s);
  SlotPool<MptcpFlow>& pool = pools_[s].mptcp;
  const TcpParams& params = network_.config().tcp;
  if (pool.free.empty()) {
    pool.slots.push_back(std::make_unique<MptcpFlow>(
        shard.events, shard.pool, id, params, bytes, coupling));
    return *pool.slots.back();
  }
  MptcpFlow& flow = *pool.free.back();
  pool.free.pop_back();
  // The subflow objects outlive the connection re-constructed around them.
  auto subflows = flow.connection.release_subflows();
  std::destroy_at(&flow.connection);
  std::construct_at(&flow.connection, shard.events, shard.pool, id, params,
                    bytes, coupling, std::move(subflows));
  flow.sinks.clear();
  flow.planes.clear();
  return flow;
}

void FlowFactory::launch(FlowSlot& flow, LiveList& live,
                         const LaunchInfo& info, FlowCallback on_complete) {
  flow.info = info;
  flow.on_complete = std::move(on_complete);
  live.push_back(&flow);
  peak_held_flows_ =
      std::max(peak_held_flows_, next_flow_id_ - flows_retired_);
  note_started(flow.info);
}

const Route* FlowFactory::wire(FlowSlot& flow, const routing::Path& path,
                               TcpSink& sink, TcpSrc& source) {
  const Route* fwd = network_.make_route(path, sink);
  const Route* rev = network_.make_reverse_route(path, source);
  flow.routes.push_back(fwd);
  flow.routes.push_back(rev);
  sink.set_ack_route(rev);
  return fwd;
}

TcpSrc& FlowFactory::tcp_flow(HostId src, HostId dst,
                              const routing::Path& path, std::uint64_t bytes,
                              SimTime start, FlowCallback on_complete) {
  reserve_events(1);
  const FlowId id = next_id();
  TcpFlow& flow = acquire_tcp(src, id);
  TcpSrc& source = flow.source;
  flow.sink = &acquire_sink(dst, id);
  flow.plane = path.plane;
  flow.tracked = static_cast<bool>(repath_provider_);
  const Route* fwd = wire(flow, path, *flow.sink, source);
  source.set_flow_size(bytes);

  if (flow.tracked) {
    source.set_repath_callback([this, &flow](TcpSrc&) -> const Route* {
      if (shards_.in_worker_phase()) {
        // RTO-driven repath on a shard thread: route building mutates the
        // route arena and telemetry, so park it until the barrier and
        // install the fresh route there. The source keeps its old route
        // (and its RTO backoff) for the fraction of an epoch in between —
        // deterministically, at every worker count. The drain runs before
        // any retirement, so the slot still holds this flow.
        const HostId host = flow.info.src;
        shards_.defer(shards_.shard_of_host(host),
                      shards_.host_events(host).now(), [this, &flow] {
                        if (flow.source.complete()) return;
                        flow.source.apply_repath(repath(flow));
                      });
        return nullptr;
      }
      return repath(flow);
    });
  }

  source.set_completion_callback([this, &flow](TcpSrc& s) {
    const LaunchInfo& info = flow.info;
    FlowRecord record{info.id,    info.src,
                      info.dst,   info.bytes,
                      info.start, s.completion_time(),
                      info.hops,  1,
                      s.retransmits(), s.timeouts(), s.repaths()};
    record.delivered_bytes = info.bytes;
    deliver_record(record, flow, tcp_draining_);
  });
  launch(flow, tcp_live_, LaunchInfo{id, src, dst, bytes, start, path.hops()},
         std::move(on_complete));
  source.connect(fwd, start);
  return source;
}

const Route* FlowFactory::repath(TcpFlow& flow) {
  auto paths = repath_provider_(flow.info.src, flow.info.dst, flow.plane,
                                flow.info.bytes);
  if (paths.empty()) return nullptr;
  const routing::Path& path = paths.front();
  const Route* fwd = wire(flow, path, *flow.sink, flow.source);
  flow.plane = path.plane;
  if (telemetry_ != nullptr) {
    telemetry_->registry.counter("repaths").inc();
    PNET_TRACE_INSTANT(&telemetry_->trace, "repath", events_.now(),
                       flow.info.id.v);
  }
  return fwd;
}

int FlowFactory::repin_flows(int from_plane, int max_flows,
                             const RepinPick& pick) {
  int moved = 0;
  for (FlowSlot* slot = tcp_live_.head; slot != nullptr && moved < max_flows;
       slot = slot->next) {
    auto& flow = static_cast<TcpFlow&>(*slot);
    if (!flow.tracked || flow.plane != from_plane ||
        flow.source.complete()) {
      continue;
    }
    auto paths = pick(flow.info.src, flow.info.dst, flow.info.bytes);
    if (paths.empty()) continue;
    const routing::Path& path = paths.front();
    // Same rewiring as repath(): fresh forward + reverse routes, the sink's
    // ACK route follows, and the source restarts cleanly on the new path.
    const Route* fwd = wire(flow, path, *flow.sink, flow.source);
    flow.plane = path.plane;
    flow.source.apply_repath(fwd);
    ++moved;
    if (telemetry_ != nullptr) {
      telemetry_->registry.counter("repins").inc();
      PNET_TRACE_INSTANT(&telemetry_->trace, "repin", events_.now(),
                         flow.info.id.v);
    }
  }
  return moved;
}

std::vector<int> FlowFactory::live_tcp_planes() const {
  std::vector<int> out;
  for_each_live<const TcpFlow>(tcp_live_, [&out](const TcpFlow& flow) {
    if (flow.tracked && !flow.source.complete()) out.push_back(flow.plane);
  });
  return out;
}

std::vector<const TcpSrc*> FlowFactory::incomplete_tcp_flows() const {
  std::vector<const TcpSrc*> out;
  for_each_live<const TcpFlow>(tcp_live_, [&out](const TcpFlow& flow) {
    if (!flow.source.complete()) out.push_back(&flow.source);
  });
  return out;
}

std::vector<const MptcpConnection*> FlowFactory::incomplete_mptcp_flows()
    const {
  std::vector<const MptcpConnection*> out;
  for_each_live<const MptcpFlow>(mptcp_live_, [&out](const MptcpFlow& flow) {
    if (!flow.connection.complete()) out.push_back(&flow.connection);
  });
  return out;
}

void FlowFactory::on_plane_failed(int plane) {
  for_each_live<TcpFlow>(tcp_live_, [plane](TcpFlow& flow) {
    if (flow.tracked && flow.plane == plane && !flow.source.complete()) {
      flow.source.force_repath();
    }
  });
  for_each_live<MptcpFlow>(mptcp_live_, [plane](MptcpFlow& flow) {
    MptcpConnection& conn = flow.connection;
    if (conn.complete()) return;
    for (std::size_t s = 0; s < flow.planes.size(); ++s) {
      if (flow.planes[s] != plane) continue;
      MptcpSubflow& sf = conn.subflow(static_cast<int>(s));
      if (!sf.abandoned()) conn.handle_stuck_subflow(sf);
    }
  });
}

void FlowFactory::on_plane_recovered(int plane) {
  for_each_live<MptcpFlow>(mptcp_live_, [plane](MptcpFlow& flow) {
    MptcpConnection& conn = flow.connection;
    if (conn.complete()) return;
    for (std::size_t s = 0; s < flow.planes.size(); ++s) {
      if (flow.planes[s] != plane) continue;
      MptcpSubflow& sf = conn.subflow(static_cast<int>(s));
      if (sf.abandoned()) conn.revive_subflow(sf);
    }
  });
}

std::uint64_t FlowFactory::total_delivered_bytes() const {
  // Retired flows can deliver nothing more, so their bytes are a constant.
  std::uint64_t total = retired_delivered_;
  for_each_live<const TcpFlow>(tcp_live_, [&total](const TcpFlow& flow) {
    total += flow.source.acked_bytes();
  });
  for_each_live<const MptcpFlow>(mptcp_live_,
                                 [&total](const MptcpFlow& flow) {
                                   total += flow.connection.delivered_bytes();
                                 });
  return total;
}

std::size_t FlowFactory::endpoint_slots() const {
  std::size_t total = 0;
  for (const ShardPools& p : pools_) {
    total += p.tcp.slots.size() + p.sinks.slots.size() + p.mptcp.slots.size();
  }
  return total;
}

MptcpConnection& FlowFactory::mptcp_flow(HostId src, HostId dst,
                                         const std::vector<routing::Path>& paths,
                                         std::uint64_t bytes, SimTime start,
                                         FlowCallback on_complete,
                                         Coupling coupling) {
  reserve_events(static_cast<int>(paths.size()));
  const FlowId id = next_id();
  MptcpFlow& flow = acquire_mptcp(src, id, bytes, coupling);
  MptcpConnection& connection = flow.connection;

  // MP_JOIN staggering: secondary subflows join one handshake later, the
  // handshake riding the primary path's round trip.
  SimTime join_delay = 0;
  if (network_.config().tcp.mptcp_staggered_join && !paths.empty()) {
    const auto& primary = paths.front();
    join_delay =
        2 * primary.latency(network_.net().plane(primary.plane).graph);
  }
  bool first = true;
  for (const auto& path : paths) {
    MptcpSubflow& subflow = connection.add_subflow();
    TcpSink& sink = acquire_sink(dst, id);
    // Each subflow's plane lets the §3.4 link-status hooks
    // (on_plane_failed / on_plane_recovered) find affected subflows.
    flow.sinks.push_back(&sink);
    flow.planes.push_back(path.plane);
    subflow.connect(wire(flow, path, sink, subflow),
                    first ? start : start + join_delay);
    first = false;
  }

  connection.set_completion_callback([this, &flow](MptcpConnection& c) {
    const LaunchInfo& info = flow.info;
    FlowRecord record{info.id,    info.src,
                      info.dst,   info.bytes,
                      info.start, c.completion_time(),
                      info.hops,  static_cast<int>(flow.planes.size()),
                      c.total_retransmits(), c.total_timeouts(), 0};
    record.delivered_bytes = info.bytes;
    deliver_record(record, flow, mptcp_draining_);
  });
  const int hops = paths.empty() ? 0 : paths.front().hops();
  launch(flow, mptcp_live_, LaunchInfo{id, src, dst, bytes, start, hops},
         std::move(on_complete));
  return connection;
}

void FlowFactory::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
}

template <class Flow>
void FlowFactory::deliver_record(const FlowRecord& record, Flow& flow,
                                 std::vector<Flow*>& draining) {
  auto deliver = [this, record, &flow, &draining] {
    logger_.record(record);
    note_finished(record);
    draining.push_back(&flow);
    if (flow.on_complete) flow.on_complete(record);
  };
  if (shards_.in_worker_phase()) {
    // Completion fired on the sender's shard thread; the logger, telemetry
    // and the user callback are coordinator-only, so park the record until
    // the barrier. The drain's (end, shard, emit) stable order keeps the
    // logger's record sequence worker-count-independent.
    shards_.defer(shards_.shard_of_host(record.src), record.end,
                  std::move(deliver));
    return;
  }
  deliver();
}

void FlowFactory::retire_drained() {
  // A completed flow whose endpoints put on the wire exactly as many
  // packets as came off it or were dropped on the way has nothing in
  // flight; with its sources idle, nothing can reach it any more.
  std::erase_if(tcp_draining_, [this](TcpFlow* flow) {
    const TcpSrc& src = flow->source;
    const TcpSink& sink = *flow->sink;
    if (!src.idle() || src.packets_sent() + sink.packets_sent() !=
                           src.packets_ended() + sink.packets_ended()) {
      return false;
    }
    retire(*flow);
    return true;
  });
  std::erase_if(mptcp_draining_, [this](MptcpFlow* flow) {
    MptcpConnection& conn = flow->connection;
    if (!conn.idle()) return false;
    std::uint64_t sent = 0;
    std::uint64_t ended = 0;
    for (std::size_t i = 0; i < flow->sinks.size(); ++i) {
      const MptcpSubflow& sf = conn.subflow(static_cast<int>(i));
      sent += sf.packets_sent() + flow->sinks[i]->packets_sent();
      ended += sf.packets_ended() + flow->sinks[i]->packets_ended();
    }
    if (sent != ended) return false;
    retire(*flow);
    return true;
  });
}

void FlowFactory::retire(TcpFlow& flow) {
  flow.source.retire();
  flow.sink->poison();
  retired_delivered_ += flow.source.acked_bytes();
  pools_[shards_.shard_of_host(flow.info.dst)].sinks.free.push_back(
      flow.sink);
  pools_[shards_.shard_of_host(flow.info.src)].tcp.free.push_back(&flow);
  release(flow, tcp_live_);
}

void FlowFactory::retire(MptcpFlow& flow) {
  flow.connection.retire();
  for (TcpSink* sink : flow.sinks) {
    sink->poison();
    pools_[shards_.shard_of_host(flow.info.dst)].sinks.free.push_back(sink);
  }
  retired_delivered_ += flow.connection.delivered_bytes();
  pools_[shards_.shard_of_host(flow.info.src)].mptcp.free.push_back(&flow);
  release(flow, mptcp_live_);
}

void FlowFactory::release(FlowSlot& flow, LiveList& live) {
  for (const Route* route : flow.routes) network_.release_route(route);
  flow.routes.clear();
  flow.on_complete = nullptr;
  live.erase(&flow);
  ++flows_retired_;
}

void FlowFactory::note_started(const LaunchInfo& info) {
  if (telemetry_ == nullptr) return;
  telemetry_->registry.counter("flows_started").inc();
  PNET_TRACE_INSTANT(&telemetry_->trace, "flow_start", info.start, info.id.v);
}

void FlowFactory::note_finished(const FlowRecord& r) {
  ++flows_finished_;
  if (telemetry_ == nullptr) return;
  telemetry_->registry.counter("flows_finished").inc();
  PNET_TRACE_COMPLETE(&telemetry_->trace, "flow", r.start, r.end, r.id.v);
}

int FlowFactory::finalize(SimTime at) {
  int count = 0;
  const auto log_partial = [&](LaunchInfo& info, FlowRecord record,
                               std::uint64_t delivered) {
    info.finalized = true;
    record.delivered_bytes = delivered;
    record.completed = false;
    logger_.record(record);
    note_finished(record);
    ++count;
  };
  for_each_live<TcpFlow>(tcp_live_, [&](TcpFlow& flow) {
    LaunchInfo& info = flow.info;
    const TcpSrc& s = flow.source;
    if (info.finalized || s.complete()) return;
    log_partial(info,
                FlowRecord{info.id, info.src, info.dst, info.bytes,
                           info.start, at, info.hops, 1, s.retransmits(),
                           s.timeouts(), s.repaths()},
                s.acked_bytes());
  });
  for_each_live<MptcpFlow>(mptcp_live_, [&](MptcpFlow& flow) {
    LaunchInfo& info = flow.info;
    const MptcpConnection& c = flow.connection;
    if (info.finalized || c.complete()) return;
    log_partial(info,
                FlowRecord{info.id, info.src, info.dst, info.bytes,
                           info.start, at, info.hops,
                           static_cast<int>(flow.planes.size()),
                           c.total_retransmits(), c.total_timeouts(), 0},
                c.delivered_bytes());
  });
  if (count > 0 && telemetry_ != nullptr) {
    telemetry_->registry.counter("finalized_flows").add(
        static_cast<std::uint64_t>(count));
  }
  return count;
}

}  // namespace pnet::sim
