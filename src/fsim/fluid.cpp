#include "fsim/fluid.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "routing/ecmp.hpp"
#include "routing/plane_paths.hpp"

namespace pnet::fsim {

namespace {

/// A flow is done once less than half a byte of fluid remains (event times
/// are rounded up to whole picoseconds, so the residual is rounding noise).
constexpr double kEpsBytes = 0.5;
constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

struct PendingLater {
  bool operator()(const auto& a, const auto& b) const {
    return a.spec.start > b.spec.start;
  }
};

constexpr util::EnumName<RouteScheme> kSchemeNames[] = {
    {RouteScheme::kEcmpPlaneHash, "ecmp"},
    {RouteScheme::kShortestPlane, "shortest-plane"},
    {RouteScheme::kKspMultipath, "ksp-multipath"},
};

}  // namespace

util::EnumNames<RouteScheme> name_table(RouteScheme) { return kSchemeNames; }
const char* to_string(RouteScheme scheme) { return util::to_name(scheme); }

namespace {

/// KSP tie-break jitter seed: per PAIR, not per flow, so the cache can
/// memoize the candidate pool (matching core::PathSelector's convention).
std::uint64_t ksp_seed(HostId src, HostId dst) {
  return mix64(routing::pair_key(src, dst) ^ 0xABCD);
}

}  // namespace

std::vector<routing::Path> choose_paths(const topo::ParallelNetwork& net,
                                        const FsimConfig& config, HostId src,
                                        HostId dst, std::uint64_t flow_key) {
  switch (config.scheme) {
    case RouteScheme::kEcmpPlaneHash: {
      // Same plane-hash convention as the LP runners in bench/common.hpp,
      // so fluid, packet and LP engines agree on which plane a flow rides.
      const int plane = routing::ecmp_pick(
          mix64(flow_key * 0x9E3779B9ULL + 1), net.num_planes());
      auto paths = routing::ecmp_paths_in_plane(net, plane, src, dst,
                                                config.ecmp_path_cap);
      if (paths.empty()) return {};
      const int pick =
          routing::ecmp_pick(mix64(flow_key ^ 0x5BF03635C4ULL),
                             static_cast<int>(paths.size()));
      return {std::move(paths[static_cast<std::size_t>(pick)])};
    }
    case RouteScheme::kShortestPlane: {
      auto per_plane = routing::shortest_per_plane(net, src, dst);
      if (per_plane.empty()) return {};
      // Hash among the planes tied for fewest hops, like the packet-sim
      // selector, so homogeneous P-Nets spread instead of piling on plane 0.
      int ties = 1;
      while (ties < static_cast<int>(per_plane.size()) &&
             per_plane[static_cast<std::size_t>(ties)].hops() ==
                 per_plane.front().hops()) {
        ++ties;
      }
      const int pick =
          routing::ecmp_pick(mix64(flow_key + 0x51ED2705ULL), ties);
      return {std::move(per_plane[static_cast<std::size_t>(pick)])};
    }
    case RouteScheme::kKspMultipath:
      return routing::ksp_across_planes(net, src, dst, config.k,
                                        ksp_seed(src, dst));
  }
  return {};
}

FluidSimulator::FluidSimulator(const topo::ParallelNetwork& net,
                               FsimConfig config,
                               std::shared_ptr<routing::RouteCache> cache)
    : net_(net), config_(config), cache_(std::move(cache)), index_(net),
      alloc_(index_.capacity()),
      plane_phys_down_(static_cast<std::size_t>(net.num_planes()), false),
      plane_masked_(static_cast<std::size_t>(net.num_planes()), false) {
  if (cache_ == nullptr) cache_ = std::make_shared<routing::RouteCache>();
}

bool FluidSimulator::routing_bias_active() const {
  if (!plane_weights_.empty()) return true;
  for (bool masked : plane_masked_) {
    if (masked) return true;
  }
  return false;
}

void FluidSimulator::set_plane_usable(int plane, bool usable) {
  plane_masked_[static_cast<std::size_t>(plane)] = !usable;
}

void FluidSimulator::set_plane_weights(std::vector<double> weights) {
  plane_weights_ = std::move(weights);
}

void FluidSimulator::set_control(SimTime cadence,
                                 std::function<void(SimTime)> tick) {
  control_cadence_ = cadence;
  control_tick_ = std::move(tick);
  next_control_ = now_ + cadence;
}

void FluidSimulator::enable_plane_accounting() {
  if (plane_bytes_.empty()) {
    plane_bytes_.assign(static_cast<std::size_t>(net_.num_planes()), 0.0);
  }
}

void FluidSimulator::fail_plane(SimTime at, SimTime until, int plane) {
  if (base_capacity_.empty()) base_capacity_ = index_.capacity();
  fabric_.push_back(FabricEvent{at, plane, true});
  if (until > at) fabric_.push_back(FabricEvent{until, plane, false});
  std::stable_sort(
      fabric_.begin() + static_cast<std::ptrdiff_t>(fabric_next_),
      fabric_.end(),
      [](const FabricEvent& a, const FabricEvent& b) { return a.at < b.at; });
}

void FluidSimulator::apply_fabric_events() {
  while (fabric_next_ < fabric_.size() && fabric_[fabric_next_].at <= now_) {
    const FabricEvent& event = fabric_[fabric_next_++];
    const auto p = static_cast<std::size_t>(event.plane);
    if (plane_phys_down_[p] == event.down) continue;  // idempotent
    plane_phys_down_[p] = event.down;
    const int begin = index_.plane_offset(event.plane);
    const int end = begin + index_.plane_link_count(event.plane);
    for (int link = begin; link < end; ++link) {
      alloc_.set_capacity(
          link, event.down ? 0.0
                           : base_capacity_[static_cast<std::size_t>(link)]);
    }
    rates_stale_ = true;
    ++events_;
    if (fault_listener_) fault_listener_(event);
  }
}

int FluidSimulator::repin_flows(int from_plane, int to_plane, int max_flows) {
  if (max_flows <= 0 || from_plane == to_plane) return 0;
  int moved = 0;
  // Creation order over the active list: deterministic, oldest flows first.
  for (auto& active : active_) {
    if (moved >= max_flows) break;
    if (active.sub_ids.size() != 1 || active.planes[0] != from_plane) {
      continue;
    }
    const HostId src = active.spec.src;
    const HostId dst = active.spec.dst;
    const routing::RouteSnapshot snapshot = cache_->lookup(
        net_, routing::RouteQuery::ecmp_plane(src, dst, to_plane,
                                              config_.ecmp_path_cap));
    if (snapshot.empty()) continue;
    const int pick =
        routing::ecmp_pick(routing::repin_key(src, dst, repin_seq_++),
                           static_cast<int>(snapshot.size()));
    const routing::PathView path =
        snapshot.view(static_cast<std::size_t>(pick));
    alloc_.remove(active.sub_ids[0]);
    active.sub_ids[0] = alloc_.add(index_.to_global(path));
    active.planes[0] = to_plane;
    active.hops = path.hops();
    rates_stale_ = true;
    ++moved;
  }
  if (moved > 0) ++events_;
  return moved;
}

std::vector<int> FluidSimulator::active_subflow_planes() const {
  std::vector<int> out;
  for (const auto& active : active_) {
    for (int plane : active.planes) out.push_back(plane);
  }
  return out;
}

void FluidSimulator::route(Pending& pending, std::uint64_t flow_key) {
  // Mirrors choose_paths() exactly — candidate sets come from the cache,
  // only the per-flow picks are computed here. tests/fsim_test.cpp pins the
  // equivalence.
  const HostId src = pending.spec.src;
  const HostId dst = pending.spec.dst;
  switch (config_.scheme) {
    case RouteScheme::kEcmpPlaneHash: {
      const std::uint64_t plane_key = mix64(flow_key * 0x9E3779B9ULL + 1);
      int plane;
      if (!routing_bias_active()) {
        plane = routing::ecmp_pick(plane_key, net_.num_planes());
      } else {
        // Controller bias engaged: hash over the unmasked planes, weighted
        // when weights are set. Falls back to the unbiased pick when the
        // controller has masked everything (the flow will starve, not
        // vanish).
        std::vector<int> usable;
        for (int p = 0; p < net_.num_planes(); ++p) {
          if (!plane_masked_[static_cast<std::size_t>(p)]) usable.push_back(p);
        }
        plane = usable.empty()
                    ? routing::ecmp_pick(plane_key, net_.num_planes())
                    : usable[routing::weighted_pick(usable, plane_weights_,
                                                    plane_key)];
      }
      pending.snapshot = cache_->lookup(
          net_, routing::RouteQuery::ecmp_plane(src, dst, plane,
                                                config_.ecmp_path_cap));
      if (pending.snapshot->empty()) return;
      pending.picks.push_back(static_cast<std::uint32_t>(routing::ecmp_pick(
          mix64(flow_key ^ 0x5BF03635C4ULL),
          static_cast<int>(pending.snapshot->size()))));
      return;
    }
    case RouteScheme::kShortestPlane: {
      pending.snapshot = cache_->lookup(
          net_, routing::RouteQuery::shortest_per_plane(src, dst));
      if (pending.snapshot->empty()) return;
      int ties = 1;
      while (ties < static_cast<int>(pending.snapshot->size()) &&
             pending.snapshot->view(static_cast<std::size_t>(ties)).hops() ==
                 pending.snapshot->view(0).hops()) {
        ++ties;
      }
      if (routing_bias_active()) {
        // Restrict the tie pool to unmasked planes (hop count still wins
        // over weights for this scheme); keep the unrestricted pool when
        // the controller masked every tied plane.
        std::vector<std::uint32_t> open;
        for (int i = 0; i < ties; ++i) {
          const int plane =
              pending.snapshot->view(static_cast<std::size_t>(i)).plane();
          if (!plane_masked_[static_cast<std::size_t>(plane)]) {
            open.push_back(static_cast<std::uint32_t>(i));
          }
        }
        if (!open.empty()) {
          const int pick = routing::ecmp_pick(
              mix64(flow_key + 0x51ED2705ULL),
              static_cast<int>(open.size()));
          pending.picks.push_back(open[static_cast<std::size_t>(pick)]);
          return;
        }
      }
      pending.picks.push_back(static_cast<std::uint32_t>(
          routing::ecmp_pick(mix64(flow_key + 0x51ED2705ULL), ties)));
      return;
    }
    case RouteScheme::kKspMultipath: {
      pending.snapshot = cache_->lookup(
          net_, routing::RouteQuery::ksp(src, dst, config_.k,
                                         ksp_seed(src, dst)));
      for (std::uint32_t i = 0; i < pending.snapshot->size(); ++i) {
        if (routing_bias_active() &&
            plane_masked_[static_cast<std::size_t>(
                pending.snapshot->view(i).plane())]) {
          continue;  // masked plane: drop the subflow from the set
        }
        pending.picks.push_back(i);
      }
      if (pending.picks.empty()) {
        // Every candidate masked: fall back to the full set rather than
        // silently dropping the flow.
        for (std::uint32_t i = 0; i < pending.snapshot->size(); ++i) {
          pending.picks.push_back(i);
        }
      }
      return;
    }
  }
}

void FluidSimulator::add_flow(const FlowSpec& spec) {
  Pending pending;
  pending.spec = spec;
  pending.spec.start = std::max(spec.start, now_);
  pending.key = next_key_++;
  pending.needs_route = true;  // routed at admission (see Pending::key)
  pending_.push_back(std::move(pending));
  std::push_heap(pending_.begin(), pending_.end(), PendingLater{});
}

void FluidSimulator::add_flow(const FlowSpec& spec,
                              std::vector<routing::Path> paths) {
  Pending pending;
  pending.spec = spec;
  pending.spec.start = std::max(spec.start, now_);
  pending.paths = std::move(paths);
  pending_.push_back(std::move(pending));
  std::push_heap(pending_.begin(), pending_.end(), PendingLater{});
}

void FluidSimulator::admit(Pending&& pending) {
  ++events_;
  if (pending.needs_route) {
    route(pending, pending.key);
    pending.needs_route = false;
  }
  if (!pending.routed()) {
    // Disconnected pair: nothing can flow; log a zero-duration record so
    // the caller sees the flow was not silently dropped.
    FlowResult result;
    result.src = pending.spec.src;
    result.dst = pending.spec.dst;
    result.bytes = pending.spec.bytes;
    result.start = pending.spec.start;
    result.end = now_;
    result.subflows = 0;
    results_.push_back(result);
    return;
  }
  if (static_cast<double>(pending.spec.bytes) <= kEpsBytes) {
    // Zero-byte flow: nothing to drain, done the instant it starts.
    FlowResult result;
    result.src = pending.spec.src;
    result.dst = pending.spec.dst;
    result.bytes = pending.spec.bytes;
    result.start = pending.spec.start;
    result.end = now_;
    result.hops = pending.path(0).hops();
    results_.push_back(result);
    return;
  }
  Active active;
  active.spec = pending.spec;
  active.remaining_bytes = static_cast<double>(pending.spec.bytes);
  active.hops = pending.path(0).hops();
  active.sub_ids.reserve(pending.num_paths());
  active.planes.reserve(pending.num_paths());
  for (std::size_t i = 0; i < pending.num_paths(); ++i) {
    active.sub_ids.push_back(alloc_.add(index_.to_global(pending.path(i))));
    active.planes.push_back(pending.path(i).plane());
  }
  active_.push_back(std::move(active));
  rates_stale_ = true;
  flows_started_counter_.inc();
  if (telemetry_ != nullptr) {
    PNET_TRACE_INSTANT(&telemetry_->trace, "flow_start", now_,
                       static_cast<std::int64_t>(active_.size()));
  }
}

void FluidSimulator::complete(std::size_t slot) {
  ++events_;
  Active& active = active_[slot];
  FlowResult result;
  result.src = active.spec.src;
  result.dst = active.spec.dst;
  result.bytes = active.spec.bytes;
  result.start = active.spec.start;
  result.end = now_;
  result.subflows = static_cast<int>(active.sub_ids.size());
  result.hops = active.hops;
  results_.push_back(result);
  for (int id : active.sub_ids) alloc_.remove(id);
  active_[slot] = std::move(active_.back());
  active_.pop_back();
  rates_stale_ = true;
  flows_finished_counter_.inc();
  if (telemetry_ != nullptr) {
    PNET_TRACE_COMPLETE(&telemetry_->trace, "flow", result.start, result.end,
                        result.subflows);
  }
}

void FluidSimulator::drain(SimTime dt) {
  if (dt <= 0) return;
  const double seconds = units::to_seconds(dt);
  for (auto& active : active_) {
    const double bytes = active.rate_bps * seconds / 8.0;
    const double drained = std::min(bytes, active.remaining_bytes);
    delivered_bytes_ += drained;
    active.remaining_bytes -= drained;
    if (!plane_bytes_.empty() && drained > 0.0 && active.rate_bps > 0.0) {
      // Plane attribution: split the drained bytes across subflows in
      // proportion to their allocated rates (exact for single-path flows).
      if (active.sub_ids.size() == 1) {
        plane_bytes_[static_cast<std::size_t>(active.planes[0])] += drained;
      } else {
        for (std::size_t i = 0; i < active.sub_ids.size(); ++i) {
          plane_bytes_[static_cast<std::size_t>(active.planes[i])] +=
              drained * alloc_.rate_bps(active.sub_ids[i]) / active.rate_bps;
        }
      }
    }
  }
}

void FluidSimulator::settle() {
  if (alloc_.dirty()) {
    alloc_.solve();
    rates_stale_ = true;
    // An abandoned (cancelled) solve leaves mixed-epoch rates; skip the
    // feasibility audit — the trial is being torn down, not continued.
    if (audit_ != nullptr && !(cancel_ != nullptr && cancel_->cancelled())) {
      alloc_.audit_check(*audit_);
    }
  }
  if (!rates_stale_) return;
  for (auto& active : active_) {
    double rate = 0.0;
    for (int id : active.sub_ids) rate += alloc_.rate_bps(id);
    active.rate_bps = rate;
    if (audit_ != nullptr) {
      audit_->note_check();
      if (active.remaining_bytes < 0.0) {
        audit_->fail("fluid residual negative: " +
                     std::to_string(active.remaining_bytes) + " bytes");
      }
    }
  }
  rates_stale_ = false;
}

void FluidSimulator::run_until(SimTime deadline) {
  while (true) {
    // Cancellation poll: fsim events are coarse (admissions, completions,
    // sample grid points), so a strided check per loop iteration bounds
    // cancel latency without showing up in profiles.
    if (cancel_ != nullptr && (loop_iters_++ & 63) == 0 &&
        cancel_->cancelled()) {
      break;
    }
    // Completions first (anything drained to zero by the last advance),
    // then arrivals due now, then a rate re-solve over the new flow set.
    for (std::size_t slot = 0; slot < active_.size();) {
      if (active_[slot].remaining_bytes <= kEpsBytes) {
        complete(slot);
      } else {
        ++slot;
      }
    }
    while (!pending_.empty() && pending_.front().spec.start <= now_) {
      std::pop_heap(pending_.begin(), pending_.end(), PendingLater{});
      Pending pending = std::move(pending_.back());
      pending_.pop_back();
      admit(std::move(pending));
    }
    settle();

    SimTime t_next = kNever;
    for (const auto& active : active_) {
      if (active.rate_bps <= 0.0) continue;  // starved; cannot predict
      const double dt_ps = active.remaining_bytes * 8.0 / active.rate_bps *
                           static_cast<double>(units::kSecond);
      if (dt_ps >= static_cast<double>(kNever - now_)) continue;
      const SimTime t =
          now_ + std::max<SimTime>(1, static_cast<SimTime>(std::ceil(dt_ps)));
      t_next = std::min(t_next, t);
    }
    if (!pending_.empty()) {
      t_next = std::min(t_next, std::max(pending_.front().spec.start, now_));
    }
    // Fabric events are unconditional candidates: a fully-starved
    // simulation (every flow on a failed plane) must still advance to its
    // recovery events.
    if (fabric_next_ < fabric_.size()) {
      t_next = std::min(t_next, std::max(fabric_[fabric_next_].at, now_));
    }
    // Control ticks fire while any work remains — starved flows included,
    // since the controller may be about to evacuate them.
    if (control_tick_ && (!active_.empty() || !pending_.empty())) {
      t_next = std::min(t_next, next_control_);
    }
    if (t_next == kNever) break;  // drained, or only starved flows remain
    // Sample grid points become events, so rate buckets are exact: the
    // drain below stops exactly at the grid point the sampler reads. Only
    // while real work remains (t_next != kNever) — sampling must not keep
    // a drained simulation alive.
    if (telemetry_ != nullptr && telemetry_->sampler.started()) {
      t_next = std::min(t_next, telemetry_->sampler.next_sample_at());
    }
    if (t_next > deadline) {
      drain(deadline - now_);
      now_ = std::max(now_, deadline);
      break;
    }
    drain(t_next - now_);
    now_ = t_next;
    // Fabric first, then sampling, then control: a tick at t sees the
    // plane state and telemetry as of t.
    apply_fabric_events();
    if (telemetry_ != nullptr) telemetry_->sampler.advance(now_);
    while (control_tick_ && next_control_ <= now_) {
      const SimTime tick_at = next_control_;
      next_control_ += control_cadence_;
      control_tick_(tick_at);
    }
  }
  // The allocator's counts since the last return.
  const auto publish = [](const telemetry::Registry::Counter& counter,
                          std::int64_t& published, std::int64_t total) {
    counter.add(static_cast<std::uint64_t>(total -
                                           std::exchange(published, total)));
  };
  publish(water_fills_counter_, published_water_fills_, alloc_.full_solves());
  publish(warm_water_fills_counter_, published_warm_water_fills_,
          alloc_.warm_solves());
  publish(fast_paths_counter_, published_fast_paths_, alloc_.fast_paths());
}

void FluidSimulator::run() { run_until(kNever); }

std::vector<double> FluidSimulator::fct_us() const {
  std::vector<double> out;
  out.reserve(results_.size());
  for (const auto& result : results_) out.push_back(result.fct_us());
  return out;
}

std::vector<double> FluidSimulator::active_rates_bps() const {
  std::vector<double> out;
  out.reserve(active_.size());
  for (const auto& active : active_) out.push_back(active.rate_bps);
  return out;
}

double FluidSimulator::total_rate_bps() const {
  double total = 0.0;
  for (const auto& active : active_) total += active.rate_bps;
  return total;
}

double FluidSimulator::min_rate_bps() const {
  double min = 0.0;
  bool first = true;
  for (const auto& active : active_) {
    if (first || active.rate_bps < min) min = active.rate_bps;
    first = false;
  }
  return min;
}

double FluidSimulator::plane_rate_bps(int plane) const {
  double total = 0.0;
  for (const auto& active : active_) {
    for (std::size_t i = 0; i < active.sub_ids.size(); ++i) {
      if (active.planes[i] == plane) {
        total += alloc_.rate_bps(active.sub_ids[i]);
      }
    }
  }
  return total;
}

void FluidSimulator::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry == nullptr) {
    flows_started_counter_ = {};
    flows_finished_counter_ = {};
    water_fills_counter_ = {};
    warm_water_fills_counter_ = {};
    fast_paths_counter_ = {};
    return;
  }
  flows_started_counter_ = telemetry->registry.counter("flows_started");
  flows_finished_counter_ = telemetry->registry.counter("flows_finished");
  water_fills_counter_ = telemetry->registry.counter("water_fills");
  warm_water_fills_counter_ = telemetry->registry.counter("warm_water_fills");
  fast_paths_counter_ = telemetry->registry.counter("fast_paths");
  telemetry::Sampler& sampler = telemetry->sampler;
  if (!sampler.enabled()) return;
  sampler.add_series(
      "goodput_bps", telemetry::Sampler::Kind::kRate,
      [this] { return delivered_bytes_; }, 8.0);
  sampler.add_series("active_flows", telemetry::Sampler::Kind::kGauge,
                     [this] { return static_cast<double>(active_.size()); });
  sampler.add_series("total_rate_bps", telemetry::Sampler::Kind::kGauge,
                     [this] { return total_rate_bps(); });
  for (int p = 0; p < net_.num_planes(); ++p) {
    sampler.add_series("plane" + std::to_string(p) + "_util_bps",
                       telemetry::Sampler::Kind::kGauge,
                       [this, p] { return plane_rate_bps(p); });
  }
  sampler.start(now_);
}

}  // namespace pnet::fsim
