#include "exp/spec.hpp"

#include <utility>

namespace pnet::exp {

namespace {

constexpr util::EnumName<EngineKind> kEngineNames[] = {
    {EngineKind::kPacket, "packet"},
    {EngineKind::kFsim, "fsim"},
    {EngineKind::kCustom, "custom"},
};
constexpr util::EnumName<WorkloadSpec::Pattern> kPatternNames[] = {
    {WorkloadSpec::Pattern::kPermutation, "permutation"},
    {WorkloadSpec::Pattern::kAllToAll, "all_to_all"},
    {WorkloadSpec::Pattern::kRackAllToAll, "rack_all_to_all"},
    {WorkloadSpec::Pattern::kClosedLoop, "closed_loop"},
    {WorkloadSpec::Pattern::kOpenLoop, "open_loop"},
    {WorkloadSpec::Pattern::kHadoop, "hadoop"},
    {WorkloadSpec::Pattern::kIncast, "incast"},
};

/// The writer over the field list: emits each field whose condition holds.
struct FieldWriter {
  JsonWriter& w;

  template <class M>
  void operator()(std::string_view name, const M& member, bool write = true) {
    if (!write) return;
    w.key(name);
    put(member);
  }

  template <class M>
  void put(const M& m) {
    if constexpr (std::is_enum_v<M>) {
      w.value(util::to_name(m));
    } else if constexpr (std::is_same_v<M, std::uint32_t>) {
      w.value(static_cast<std::uint64_t>(m));
    } else if constexpr (std::is_arithmetic_v<M>) {
      w.value(m);
    } else {  // a nested struct with a field list of its own
      w.begin_object();
      visit(*this, m);
      w.end_object();
    }
  }
  void put(const std::string& s) { w.value(s); }
  template <class E>
  void put(const std::optional<E>& e) { put(*e); }
  void put(const std::vector<int>& items) {
    w.begin_array();
    for (const int item : items) w.value(item);
    w.end_array();
  }
  template <class T>
  void put(Micros<T> t) { w.value(units::to_microseconds(t.value)); }
  template <class T>
  void put(Gbps<T> r) { w.value(r.value / units::kGbps); }
};

/// validate()'s workload rules: the message of the first one broken. A
/// field the pattern does not read must keep its default (the canonical
/// JSON drops it and the trial would ignore it).
std::string validate_workload(const ExperimentSpec& spec) {
  using P = WorkloadSpec::Pattern;
  const WorkloadSpec& w = spec.workload;
  const bool pairs = w.host_pairs();
  const bool closed = w.pattern == P::kClosedLoop;
  const bool hadoop = w.pattern == P::kHadoop;
  const bool open = w.pattern == P::kOpenLoop;
  const bool incast = w.pattern == P::kIncast;
  const std::string pattern = util::to_name(w.pattern);
  // Poisson gaps are SimTime picoseconds: a mean gap of at most one
  // simulated second keeps every draw far from overflow.
  const double flows_per_s = w.load * spec.topo.hosts *
                             spec.topo.base_rate_bps /
                             (8.0 * static_cast<double>(w.flow_bytes));
  const std::pair<bool, std::string> rules[] = {
      {!closed && (w.response_bytes > 0 || w.trace.has_value() ||
                   w.trace_cap_bytes > 0),
       "spec.workload: response_bytes, trace and trace_cap_bytes apply to "
       "pattern closed_loop only"},
      {!closed && !hadoop && w.concurrent != 1,
       "spec.workload.concurrent applies to patterns closed_loop and hadoop "
       "only"},
      {!incast && w.fan_in != 0,
       "spec.workload.fan_in applies to pattern incast only"},
      {!hadoop && (w.mappers != 0 || w.reducers != 0 || w.job_bytes > 0),
       "spec.workload: mappers, reducers and job_bytes apply to pattern "
       "hadoop only"},
      {!open && w.load != 0.0,
       "spec.workload.load applies to pattern open_loop only"},
      // Back-to-back rounds each run to completion; a deadline cannot be
      // applied meaningfully across them.
      {pairs && w.round_gap == 0 && w.rounds > 1 && spec.deadline > 0,
       "spec.deadline requires workload.round_gap > 0 when rounds > 1"},
      // The drivers run one workload from t = 0 on the packet engine.
      {!pairs && spec.engine != EngineKind::kPacket,
       "spec.workload.pattern " + pattern + " needs engine=packet"},
      {!pairs && (w.start_jitter != WorkloadSpec{}.start_jitter ||
                  w.round_gap > 0),
       "spec.workload: start_jitter and round_gap do not apply to " +
           pattern},
      {(hadoop || incast) && w.rounds != 1,
       "spec.workload.rounds does not apply to " + pattern},
      {(closed || hadoop) && w.concurrent < 1,
       "spec.workload.concurrent must be >= 1"},
      // job_bytes >= mappers x reducers: every shuffle bucket carries a byte.
      {hadoop && (w.mappers < 1 || w.reducers < 1 ||
                  std::int64_t{w.mappers} + w.reducers > spec.topo.hosts ||
                  w.job_bytes < static_cast<std::uint64_t>(w.mappers) *
                                    static_cast<std::uint64_t>(w.reducers)),
       "spec.workload: mappers and reducers must be >= 1 and fit in "
       "topo.hosts together, and job_bytes >= mappers x reducers"},
      {open && !(w.load > 0.0 && w.load <= 100.0 && flows_per_s >= 1.0),
       "spec.workload.load must be in (0, 100] and offer at least one flow "
       "per simulated second"},
      {incast && (w.fan_in < 1 || w.fan_in >= spec.topo.hosts),
       "spec.workload.fan_in must be in [1, topo.hosts)"},
  };
  for (const auto& [broken, message] : rules) {
    if (broken) return message;
  }
  return "";
}

}  // namespace

util::EnumNames<EngineKind> name_table(EngineKind) { return kEngineNames; }
util::EnumNames<WorkloadSpec::Pattern> name_table(WorkloadSpec::Pattern) {
  return kPatternNames;
}
const char* to_string(EngineKind engine) { return util::to_name(engine); }

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
  if (std::string err = validate_workload(*this); !err.empty()) return err;
  if (topo.host_latency < 0 || topo.fabric_latency < 0) {
    return "spec.topo latencies must be >= 0";
  }
  if (policy.k < 1) return "spec.policy.k must be >= 1";
  if (policy.ecmp_path_cap < 1) return "spec.policy.ecmp_path_cap must "
                                       "be >= 1";
  // Increasing, so one plane set has one spelling and the list stays
  // within `parallelism` entries.
  int previous_plane = -1;
  for (const int plane : policy.allowed_planes) {
    if (plane <= previous_plane || plane >= topo.parallelism) {
      return "spec.policy.allowed_planes must be increasing plane indices "
             "in [0, parallelism)";
    }
    previous_plane = plane;
  }
  const sim::TcpParams& tcp = sim.tcp;
  if (tcp.mss < 1 || tcp.ack_size < 1 || tcp.initial_window_packets < 1 ||
      tcp.recovery_burst_segments < 1) {
    return "spec.sim: mss, ack_size, initial_window_packets and "
           "recovery_burst_segments must be >= 1";
  }
  // cwnd is a divisor once congestion avoidance starts.
  if (tcp.max_cwnd_bytes < tcp.mss) {
    return "spec.sim.max_cwnd_bytes must be >= mss";
  }
  if (tcp.min_rto <= 0 || tcp.initial_rto <= 0) {
    return "spec.sim: min_rto and initial_rto must be > 0";
  }
  // DCTCP's EWMA gain is 1 / (1 << shift).
  if (tcp.dctcp_gain_shift < 0 || tcp.dctcp_gain_shift > 30) {
    return "spec.sim.dctcp_gain_shift must be in [0, 30]";
  }
  if (const std::string err = controller.validate(); !err.empty()) {
    return "spec.controller: " + err;
  }
  return "";
}

void ExperimentSpec::to_json(JsonWriter& w) const {
  FieldWriter writer{w};
  writer.put(*this);
}

std::string ExperimentSpec::canonical_json() const {
  JsonWriter w;
  to_json(w);
  return w.str();
}

std::uint64_t ExperimentSpec::hash() const { return fnv1a(canonical_json()); }

std::string canonical_json(const topo::NetworkSpec& topo) {
  JsonWriter w;
  FieldWriter{w}.put(topo);
  return w.str();
}

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
