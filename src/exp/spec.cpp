#include "exp/spec.hpp"

namespace pnet::exp {

namespace {

struct EngineName {
  EngineKind engine;
  const char* name;
};
constexpr EngineName kEngineTable[] = {
    {EngineKind::kPacket, "packet"},
    {EngineKind::kFsim, "fsim"},
    {EngineKind::kCustom, "custom"},
};

}  // namespace

const char* to_string(EngineKind engine) {
  for (const EngineName& entry : kEngineTable) {
    if (entry.engine == engine) return entry.name;
  }
  return "?";
}

std::optional<EngineKind> engine_from_string(std::string_view name) {
  for (const EngineName& entry : kEngineTable) {
    if (entry.name == name) return entry.engine;
  }
  return std::nullopt;
}

std::string engine_names() {
  std::string out;
  for (const EngineName& entry : kEngineTable) {
    if (!out.empty()) out += ' ';
    out += entry.name;
  }
  return out;
}

const char* to_string(WorkloadSpec::Pattern pattern) {
  switch (pattern) {
    case WorkloadSpec::Pattern::kPermutation: return "permutation";
    case WorkloadSpec::Pattern::kAllToAll: return "all_to_all";
    case WorkloadSpec::Pattern::kRackAllToAll: return "rack_all_to_all";
    case WorkloadSpec::Pattern::kClosedLoop: return "closed_loop";
  }
  return "?";
}

std::string ExperimentSpec::validate() const {
  if (name.empty()) return "spec.name must not be empty";
  if (trials < 1) return "spec.trials must be >= 1 (got " +
                         std::to_string(trials) + ")";
  if (deadline < 0) return "spec.deadline must be >= 0";
  if (engine == EngineKind::kCustom) return "";  // the trial fn owns the rest
  if (topo.hosts < 2) return "spec.topo.hosts must be >= 2 (got " +
                             std::to_string(topo.hosts) + ")";
  if (topo.parallelism < 1) return "spec.topo.parallelism must be >= 1";
  if (topo.base_rate_bps <= 0) return "spec.topo.base_rate_bps must be > 0";
  if (workload.rounds < 1) return "spec.workload.rounds must be >= 1";
  if (workload.flow_bytes == 0) return "spec.workload.flow_bytes must be > 0";
  if (workload.start_jitter < 0) return "spec.workload.start_jitter must "
                                        "be >= 0";
  if (workload.round_gap < 0) return "spec.workload.round_gap must be >= 0";
  if (workload.pattern == WorkloadSpec::Pattern::kClosedLoop) {
    if (engine != EngineKind::kPacket) {
      return "spec.workload.pattern closed_loop needs engine=packet";
    }
    if (workload.concurrent < 1) return "spec.workload.concurrent must be >= 1";
    if (workload.round_gap > 0) {
      return "spec.workload.round_gap does not apply to closed_loop";
    }
  } else {
    if (workload.concurrent != 1 || workload.response_bytes > 0 ||
        workload.trace.has_value() || workload.trace_cap_bytes > 0) {
      return "spec.workload: concurrent, response_bytes, trace and "
             "trace_cap_bytes apply to pattern closed_loop only";
    }
    if (workload.round_gap == 0 && workload.rounds > 1 && deadline > 0) {
      // Back-to-back rounds each run to completion; a deadline cannot be
      // applied meaningfully across them.
      return "spec.deadline requires workload.round_gap > 0 when "
             "rounds > 1";
    }
  }
  if (policy.k < 1) return "spec.policy.k must be >= 1";
  if (policy.ecmp_path_cap < 1) return "spec.policy.ecmp_path_cap must "
                                       "be >= 1";
  if (const std::string err = controller.validate(); !err.empty()) {
    return "spec.controller: " + err;
  }
  return "";
}

void ExperimentSpec::to_json(JsonWriter& w) const {
  w.begin_object();
  w.field("name", name);
  w.field("engine", to_string(engine));
  w.field("seed", seed);
  w.field("trials", trials);
  if (deadline > 0) w.field("deadline_us", units::to_microseconds(deadline));
  // Written only when a control plane is on: specs predating the field
  // keep their canonical bytes (and hashes) unchanged.
  if (controller.active()) {
    w.key("controller").begin_object();
    w.field("mode", control::to_string(controller.mode));
    w.field("cadence_us", units::to_microseconds(controller.cadence));
    w.field("detect_delay_us",
            units::to_microseconds(controller.detect_delay));
    w.field("imbalance_threshold", controller.imbalance_threshold);
    w.field("max_repins_per_tick", controller.max_repins_per_tick);
    w.field("window", controller.window);
    w.end_object();
  }
  if (engine != EngineKind::kCustom) {
    w.key("topo").begin_object();
    w.field("kind", topo::to_string(topo.topo));
    w.field("type", topo::to_string(topo.type));
    w.field("hosts", topo.hosts);
    w.field("parallelism", topo.parallelism);
    w.field("base_rate_gbps", topo.base_rate_bps / units::kGbps);
    w.field("seed", topo.seed);
    if (topo.jf_switches > 0) w.field("jf_switches", topo.jf_switches);
    if (topo.jf_degree > 0) w.field("jf_degree", topo.jf_degree);
    if (topo.jf_hosts_per_switch > 0) {
      w.field("jf_hosts_per_switch", topo.jf_hosts_per_switch);
    }
    w.end_object();
    w.key("policy").begin_object();
    w.field("policy", core::to_string(policy.policy));
    w.field("k", policy.k);
    w.field("ecmp_path_cap", policy.ecmp_path_cap);
    w.field("multipath_cutoff_bytes", policy.multipath_cutoff_bytes);
    w.end_object();
    // Each pattern writes exactly the fields it reads, so host-pair specs
    // keep the canonical bytes (and hashes) they had before kClosedLoop.
    w.key("workload").begin_object();
    w.field("pattern", to_string(workload.pattern));
    if (!workload.trace.has_value()) {
      w.field("flow_bytes", workload.flow_bytes);
    }
    w.field("rounds", workload.rounds);
    if (workload.pattern == WorkloadSpec::Pattern::kClosedLoop) {
      w.field("concurrent", workload.concurrent);
      w.field("response_bytes", workload.response_bytes);
      if (workload.trace.has_value()) {
        w.field("trace", workload::to_string(*workload.trace));
        w.field("trace_cap_bytes", workload.trace_cap_bytes);
      }
    } else {
      w.field("start_jitter_us",
              units::to_microseconds(workload.start_jitter));
      if (workload.round_gap > 0) {
        w.field("round_gap_us", units::to_microseconds(workload.round_gap));
      }
    }
    w.end_object();
    w.key("sim").begin_object();
    w.field("queue_buffer_bytes", sim.queue_buffer_bytes);
    w.field("ecn_threshold_bytes", sim.ecn_threshold_bytes);
    w.field("priority_acks", sim.priority_acks);
    w.field("trim_to_header", sim.trim_to_header);
    w.field("dctcp", sim.tcp.dctcp);
    w.end_object();
  }
  w.end_object();
}

std::string ExperimentSpec::canonical_json() const {
  JsonWriter w;
  to_json(w);
  return w.str();
}

std::uint64_t ExperimentSpec::hash() const { return fnv1a(canonical_json()); }

fsim::FsimConfig to_fsim_config(const core::PolicyConfig& policy,
                                std::uint64_t flow_bytes) {
  fsim::FsimConfig config;
  config.k = policy.k;
  config.ecmp_path_cap = policy.ecmp_path_cap;
  switch (policy.policy) {
    case core::RoutingPolicy::kEcmp:
    case core::RoutingPolicy::kRoundRobin:
      config.scheme = fsim::RouteScheme::kEcmpPlaneHash;
      break;
    case core::RoutingPolicy::kShortestPlane:
      config.scheme = fsim::RouteScheme::kShortestPlane;
      break;
    case core::RoutingPolicy::kKspMultipath:
      config.scheme = fsim::RouteScheme::kKspMultipath;
      break;
    case core::RoutingPolicy::kSizeThreshold:
      config.scheme = flow_bytes > policy.multipath_cutoff_bytes
                          ? fsim::RouteScheme::kKspMultipath
                          : fsim::RouteScheme::kShortestPlane;
      break;
  }
  return config;
}

}  // namespace pnet::exp
