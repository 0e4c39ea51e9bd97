#include "sim/network.hpp"

#include <algorithm>

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
    cable_failed_.emplace_back(static_cast<std::size_t>(g.num_links()), 0);
  }
  plane_failed_.assign(static_cast<std::size_t>(net.num_planes()), 0);
}

std::size_t SimNetwork::shard_of(int plane, NodeId node) const {
  const topo::Graph& g = net_.plane(plane).graph;
  return g.is_host(node) ? shards_.shard_of_host(g.node(node).host)
                         : shards_.shard_of_plane(plane);
}

const Route* SimNetwork::make_route(const routing::Path& path,
                                    PacketSink& endpoint) {
  route_scratch_.clear();
  route_scratch_.reserve(path.links.size() * 2 + 1);
  for (LinkId id : path.links) {
    route_scratch_.push_back(&queue(path.plane, id));
    route_scratch_.push_back(stages_[static_cast<std::size_t>(path.plane)]
                                    [static_cast<std::size_t>(id.v)]
                                        .get());
  }
  route_scratch_.push_back(&endpoint);
  return routes_.intern(route_scratch_, path.hops());
}

routing::Path SimNetwork::reverse_path(const routing::Path& path) const {
  const topo::Graph& g = net_.plane(path.plane).graph;
  routing::Path rev;
  rev.plane = path.plane;
  rev.links.reserve(path.links.size());
  for (auto it = path.links.rbegin(); it != path.links.rend(); ++it) {
    rev.links.push_back(g.reverse(*it));
  }
  return rev;
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

void SimNetwork::apply_link_state(int plane, LinkId link) {
  const auto p = static_cast<std::size_t>(plane);
  const bool down = cable_failed_[p][static_cast<std::size_t>(link.v)] != 0 ||
                    plane_failed_[p] != 0;
  queue(plane, link).set_failed(down);
}

void SimNetwork::set_cable_failed(int plane, LinkId link, bool failed) {
  const LinkId rev = net_.plane(plane).graph.reverse(link);
  auto& flags = cable_failed_[static_cast<std::size_t>(plane)];
  if ((flags[static_cast<std::size_t>(link.v)] != 0) == failed) return;
  flags[static_cast<std::size_t>(link.v)] = failed ? 1 : 0;
  flags[static_cast<std::size_t>(rev.v)] = failed ? 1 : 0;
  if (failed) ++cable_fail_transitions_;
  apply_link_state(plane, link);
  apply_link_state(plane, rev);
  PNET_TRACE_INSTANT(trace_, failed ? "cable_fail" : "cable_recover",
                     events_.now(),
                     (static_cast<std::int64_t>(plane) << 32) |
                         static_cast<std::uint32_t>(link.v));
}

bool SimNetwork::cable_failed(int plane, LinkId link) const {
  return cable_failed_[static_cast<std::size_t>(plane)]
                      [static_cast<std::size_t>(link.v)] != 0;
}

void SimNetwork::set_plane_failed(int plane, bool failed) {
  const auto p = static_cast<std::size_t>(plane);
  if ((plane_failed_[p] != 0) == failed) return;
  plane_failed_[p] = failed ? 1 : 0;
  if (failed) ++plane_fail_transitions_;
  const int links = net_.plane(plane).graph.num_links();
  for (int l = 0; l < links; ++l) apply_link_state(plane, LinkId{l});
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

void FlowFactory::reserve_events(int new_endpoints) {
  endpoints_ += static_cast<std::size_t>(new_endpoints);
  // Bound on simultaneously pending events: one in-service completion per
  // queue, one delivery wake-up per pipe (2 * links), a start event plus a
  // short stack of stale RTO wake-ups per transport endpoint (arm_rto
  // leaves superseded wake-ups in the heap until they fire), and slack for
  // the telemetry driver, fault injector, and workload apps.
  const std::size_t bound =
      2 * network_.total_links() +
      static_cast<std::size_t>(network_.net().num_hosts()) +
      16 * endpoints_ + 64;
  // The shards split this pending set between their heaps; each keeps the
  // global bound (cheap, and endpoints are not balanced across shards in
  // general). Endpoints never schedule on the control queue.
  shards_.request_capacity(bound);
}

TcpSrc& FlowFactory::tcp_flow(HostId src, HostId dst,
                              const routing::Path& path, std::uint64_t bytes,
                              SimTime start, FlowCallback on_complete) {
  reserve_events(1);
  const FlowId id = next_id();
  sources_.push_back(std::make_unique<TcpSrc>(shards_.host_events(src),
                                              shards_.host_pool(src), id,
                                              network_.config().tcp));
  TcpSrc& source = *sources_.back();
  sinks_.push_back(std::make_unique<TcpSink>(shards_.host_events(dst),
                                             shards_.host_pool(dst),
                                             network_.config().tcp));
  TcpSink& sink = *sinks_.back();

  const Route* fwd = network_.make_route(path, sink);
  const Route* rev =
      network_.make_route(network_.reverse_path(path), source);
  sink.set_ack_route(rev);
  source.set_flow_size(bytes);

  if (repath_provider_) {
    tcp_metas_.push_back(std::make_unique<TcpFlowMeta>(
        TcpFlowMeta{&source, &sink, src, dst, bytes, path.plane}));
    source.set_repath_callback(
        [this, meta = tcp_metas_.back().get()](TcpSrc&) -> const Route* {
          if (shards_.in_worker_phase()) {
            // RTO-driven repath on a shard thread: route building mutates
            // the route arena and telemetry, so park it until the barrier
            // and install the fresh route there. The source keeps its old
            // route (and its RTO backoff) for the fraction of an epoch in
            // between — deterministically, at every worker count.
            shards_.defer(shards_.shard_of_host(meta->src),
                          shards_.host_events(meta->src).now(), [this, meta] {
                            if (meta->source->complete()) return;
                            meta->source->apply_repath(repath(*meta));
                          });
            return nullptr;
          }
          return repath(*meta);
        });
  }

  const int hops = path.hops();
  source.set_completion_callback(
      [this, id, src, dst, bytes, start, hops,
       cb = std::move(on_complete)](TcpSrc& s) {
        FlowRecord record{id,    src,
                          dst,   bytes,
                          start, s.completion_time(),
                          hops,  1,
                          s.retransmits(), s.timeouts(), s.repaths()};
        record.delivered_bytes = bytes;
        deliver_record(record, cb, src);
      });
  tcp_info_.push_back(LaunchInfo{id, src, dst, bytes, start, hops, false});
  note_started(tcp_info_.back());
  source.connect(fwd, start);
  return source;
}

const Route* FlowFactory::repath(TcpFlowMeta& meta) {
  auto paths =
      repath_provider_(meta.src, meta.dst, meta.plane, meta.bytes);
  if (paths.empty()) return nullptr;
  const routing::Path& path = paths.front();
  const Route* fwd = network_.make_route(path, *meta.sink);
  const Route* rev =
      network_.make_route(network_.reverse_path(path), *meta.source);
  meta.sink->set_ack_route(rev);
  meta.plane = path.plane;
  if (telemetry_ != nullptr) {
    telemetry_->registry.counter("repaths").inc();
    PNET_TRACE_INSTANT(&telemetry_->trace, "repath", events_.now(),
                       meta.source->flow().v);
  }
  return fwd;
}

int FlowFactory::repin_flows(int from_plane, int max_flows,
                             const RepinPick& pick) {
  int moved = 0;
  for (const auto& meta : tcp_metas_) {
    if (moved >= max_flows) break;
    if (meta->plane != from_plane || meta->source->complete()) continue;
    auto paths = pick(meta->src, meta->dst, meta->bytes);
    if (paths.empty()) continue;
    const routing::Path& path = paths.front();
    // Same rewiring as repath(): fresh forward + reverse routes, the sink's
    // ACK route follows, and the source restarts cleanly on the new path.
    const Route* fwd = network_.make_route(path, *meta->sink);
    const Route* rev =
        network_.make_route(network_.reverse_path(path), *meta->source);
    meta->sink->set_ack_route(rev);
    meta->plane = path.plane;
    meta->source->apply_repath(fwd);
    ++moved;
    if (telemetry_ != nullptr) {
      telemetry_->registry.counter("repins").inc();
      PNET_TRACE_INSTANT(&telemetry_->trace, "repin", events_.now(),
                         meta->source->flow().v);
    }
  }
  return moved;
}

std::vector<int> FlowFactory::live_tcp_planes() const {
  std::vector<int> out;
  for (const auto& meta : tcp_metas_) {
    if (!meta->source->complete()) out.push_back(meta->plane);
  }
  return out;
}

void FlowFactory::on_plane_failed(int plane) {
  for (const auto& meta : tcp_metas_) {
    if (meta->plane == plane && !meta->source->complete()) {
      meta->source->force_repath();
    }
  }
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    MptcpConnection& conn = *connections_[i];
    if (conn.complete()) continue;
    const auto& planes = connection_planes_[i];
    for (std::size_t s = 0; s < planes.size(); ++s) {
      if (planes[s] != plane) continue;
      MptcpSubflow& sf = conn.subflow(static_cast<int>(s));
      if (!sf.abandoned()) conn.handle_stuck_subflow(sf);
    }
  }
}

void FlowFactory::on_plane_recovered(int plane) {
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    MptcpConnection& conn = *connections_[i];
    if (conn.complete()) continue;
    const auto& planes = connection_planes_[i];
    for (std::size_t s = 0; s < planes.size(); ++s) {
      if (planes[s] != plane) continue;
      MptcpSubflow& sf = conn.subflow(static_cast<int>(s));
      if (sf.abandoned()) conn.revive_subflow(sf);
    }
  }
}

std::uint64_t FlowFactory::total_delivered_bytes() const {
  std::uint64_t total = 0;
  for (const auto& src : sources_) total += src->acked_bytes();
  for (const auto& conn : connections_) total += conn->delivered_bytes();
  return total;
}

MptcpConnection& FlowFactory::mptcp_flow(HostId src, HostId dst,
                                         const std::vector<routing::Path>& paths,
                                         std::uint64_t bytes, SimTime start,
                                         FlowCallback on_complete,
                                         Coupling coupling) {
  reserve_events(static_cast<int>(paths.size()));
  const FlowId id = next_id();
  connections_.push_back(std::make_unique<MptcpConnection>(
      shards_.host_events(src), shards_.host_pool(src), id,
      network_.config().tcp, bytes, coupling));
  MptcpConnection& connection = *connections_.back();

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
    sinks_.push_back(std::make_unique<TcpSink>(shards_.host_events(dst),
                                               shards_.host_pool(dst),
                                               network_.config().tcp));
    TcpSink& sink = *sinks_.back();
    const Route* fwd = network_.make_route(path, sink);
    const Route* rev =
        network_.make_route(network_.reverse_path(path), subflow);
    sink.set_ack_route(rev);
    subflow.connect(fwd, first ? start : start + join_delay);
    first = false;
  }

  // Record each subflow's plane so the §3.4 link-status hooks
  // (on_plane_failed / on_plane_recovered) can find affected subflows.
  std::vector<int> planes;
  planes.reserve(paths.size());
  for (const auto& path : paths) planes.push_back(path.plane);
  connection_planes_.push_back(std::move(planes));

  const int hops = paths.empty() ? 0 : paths.front().hops();
  const int num_subflows = static_cast<int>(paths.size());
  connection.set_completion_callback(
      [this, id, src, dst, bytes, start, hops, num_subflows,
       cb = std::move(on_complete)](MptcpConnection& c) {
        FlowRecord record{id,    src,
                          dst,   bytes,
                          start, c.completion_time(),
                          hops,  num_subflows,
                          c.total_retransmits(), c.total_timeouts(), 0};
        record.delivered_bytes = bytes;
        deliver_record(record, cb, src);
      });
  mptcp_info_.push_back(LaunchInfo{id, src, dst, bytes, start, hops, false});
  note_started(mptcp_info_.back());
  return connection;
}

void FlowFactory::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
}

void FlowFactory::deliver_record(const FlowRecord& record,
                                 const FlowCallback& cb, HostId src_host) {
  if (shards_.in_worker_phase()) {
    // Completion fired on the sender's shard thread; the logger, telemetry
    // and the user callback are coordinator-only, so park the record until
    // the barrier. The drain's (end, shard, emit) stable order keeps the
    // logger's record sequence worker-count-independent.
    shards_.defer(shards_.shard_of_host(src_host), record.end,
                  [this, record, cb] { deliver_record_now(record, cb); });
    return;
  }
  deliver_record_now(record, cb);
}

void FlowFactory::deliver_record_now(const FlowRecord& record,
                                     const FlowCallback& cb) {
  logger_.record(record);
  note_finished(record);
  if (cb) cb(record);
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
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    LaunchInfo& info = tcp_info_[i];
    const TcpSrc& s = *sources_[i];
    if (info.finalized || s.complete()) continue;
    info.finalized = true;
    FlowRecord record{info.id, info.src,
                      info.dst, info.bytes,
                      info.start, at,
                      info.hops, 1,
                      s.retransmits(), s.timeouts(), s.repaths()};
    record.delivered_bytes = s.acked_bytes();
    record.completed = false;
    logger_.record(record);
    note_finished(record);
    ++count;
  }
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    LaunchInfo& info = mptcp_info_[i];
    const MptcpConnection& c = *connections_[i];
    if (info.finalized || c.complete()) continue;
    info.finalized = true;
    FlowRecord record{info.id, info.src,
                      info.dst, info.bytes,
                      info.start, at,
                      info.hops,
                      static_cast<int>(connection_planes_[i].size()),
                      c.total_retransmits(), c.total_timeouts(), 0};
    record.delivered_bytes = c.delivered_bytes();
    record.completed = false;
    logger_.record(record);
    note_finished(record);
    ++count;
  }
  if (count > 0 && telemetry_ != nullptr) {
    telemetry_->registry.counter("finalized_flows").add(
        static_cast<std::uint64_t>(count));
  }
  return count;
}

}  // namespace pnet::sim
