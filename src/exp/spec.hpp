// Declarative description of one experiment cell.
//
// The paper's evaluation is a grid of repeated experiments — topology x
// policy x workload x seed — and an ExperimentSpec is one cell of that
// grid: everything needed to reconstruct the run bit-for-bit. The
// exp::Runner consumes specs (fanning cells and trials over OS threads),
// and the exp::Report serializes them into the JSON report so a result can
// always be traced back to its exact configuration.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "control/controller.hpp"
#include "core/path_selector.hpp"
#include "exp/json.hpp"
#include "fsim/fluid.hpp"
#include "sim/network.hpp"
#include "topo/parallel.hpp"
#include "util/enum_names.hpp"
#include "util/units.hpp"
#include "workload/traces.hpp"

namespace pnet::exp {

/// Which engine executes the cell's trials — a factory key resolved by
/// exp::make_engine into an exp::Engine implementation (see exp/engine.hpp).
///   kPacket — PacketEngine: core::SimHarness over the packet sim (src/sim);
///   kFsim   — FluidEngine: fsim::FluidSimulator (flow-level max-min rates,
///             100x+ faster, fidelity envelope in DESIGN.md);
///   kCustom — CustomEngine around a cell-supplied trial function (LP
///             studies, fault-injection timelines, cost models...); the
///             runner still owns seeding, fan-out, timing, and report
///             assembly.
enum class EngineKind : std::uint8_t { kPacket, kFsim, kCustom };

[[nodiscard]] const char* to_string(EngineKind engine);
[[nodiscard]] util::EnumNames<EngineKind> name_table(EngineKind);

/// Synthetic workload of the built-in engines. The host-pair patterns run
/// `rounds` pattern instances of fixed-size flows, each flow jittered
/// uniformly in [round start, round start + start_jitter). The driver
/// patterns (packet engine only) run one workload driver from t = 0:
///   kClosedLoop — the RPC/trace driver of §5.2.1 and §5.3: every host runs
///     `concurrent` workers, and each worker issues `rounds` back-to-back
///     requests to random destinations, each request optionally answered
///     by a `response_bytes` reply;
///   kOpenLoop — Poisson arrivals of `rounds` flows of `flow_bytes` between
///     random hosts at `load` times the hosts' serial edge bandwidth;
///   kHadoop — the Hadoop sort of §5.2.2: `mappers` read `job_bytes` in
///     `flow_bytes` blocks, shuffle it to `reducers`, which write it back
///     in blocks, each worker keeping `concurrent` blocks in flight;
///   kIncast — `fan_in` senders push `flow_bytes` each to one receiver, all
///     starting at t = 0.
struct WorkloadSpec {
  enum class Pattern : std::uint8_t {
    kPermutation,    // each host sends to exactly one other host
    kAllToAll,       // every ordered host pair
    kRackAllToAll,   // one representative host per rack pair
    kClosedLoop,     // workload::ClosedLoopApp on every host
    kOpenLoop,       // workload::OpenLoopApp over every host
    kHadoop,         // workload::HadoopJob over every host
    kIncast,         // fan_in senders to one receiver
  };

  Pattern pattern = Pattern::kPermutation;
  /// Flow size; for kClosedLoop the request size unless `trace` is set,
  /// for kHadoop the block size.
  std::uint64_t flow_bytes = 1'000'000;
  /// Pattern rounds; for kClosedLoop the requests per worker, for
  /// kOpenLoop the flows injected. kHadoop and kIncast leave it at 1.
  int rounds = 1;
  /// Host-pair patterns only (the drivers all start at t = 0).
  SimTime start_jitter = 10 * units::kMicrosecond;
  /// Host-pair patterns only. 0: rounds run back-to-back (each drains
  /// before the next starts). >0: round r's flows are all scheduled at
  /// r * round_gap + jitter.
  SimTime round_gap = 0;

  /// kClosedLoop: workers per host; kHadoop: blocks each worker keeps in
  /// flight.
  int concurrent = 1;
  // kClosedLoop only.
  /// 0: one-way requests; otherwise each request is an RPC whose reply of
  /// this size must land before the worker's next request.
  std::uint64_t response_bytes = 0;
  /// Draw request sizes from this published flow-size CDF instead of
  /// using `flow_bytes`.
  std::optional<workload::Trace> trace;
  /// Truncates trace draws at this size (0 = uncapped).
  std::uint64_t trace_cap_bytes = 0;

  /// kIncast only: senders, the first `fan_in` hosts other than the
  /// receiver (a trial-seeded draw), in index order.
  int fan_in = 0;
  // kHadoop only.
  int mappers = 0;
  int reducers = 0;
  /// Bytes the job sorts.
  std::uint64_t job_bytes = 0;
  /// kOpenLoop only: offered load as a fraction of every host's
  /// `topo.base_rate_bps`, the serial edge, so one x-axis stresses every
  /// network type alike.
  double load = 0.0;

  /// The first three patterns: flows between drawn host pairs, in rounds.
  [[nodiscard]] bool host_pairs() const {
    return pattern <= Pattern::kRackAllToAll;
  }
};

[[nodiscard]] util::EnumNames<WorkloadSpec::Pattern> name_table(
    WorkloadSpec::Pattern);

/// Fabric faults the built-in engines inject into every trial. The
/// controller block decides how hosts react: kOff hosts never learn of a
/// fault, kHostLocal hosts learn after `controller.detect_delay`
/// (core::HealthMonitor) and repath, kCentralized adds the Controller.
/// Neither kind invalidates a route-cache entry (plane state is a
/// selection-time mask; a degraded cable stays in service), so a cell with
/// faults still shares its route cache.
struct FaultSpec {
  /// Plane `plane` goes down at `at` and comes back `down_for` later; 0
  /// keeps it down.
  struct Outage {
    int plane = 0;
    SimTime at = 0;
    SimTime down_for = 0;
  };
  /// Packet engine only: `cables` fabric cables, a trial-seeded draw, drop
  /// each packet with probability `loss` from `at` for `duration`.
  struct LossyCables {
    int cables = 0;
    SimTime at = 0;
    SimTime duration = 0;
    double loss = 0.0;
  };

  std::optional<Outage> outage;
  std::optional<LossyCables> lossy;

  [[nodiscard]] bool any() const {
    return outage.has_value() || lossy.has_value();
  }
};

struct ExperimentSpec {
  /// Cell label: names the row/series in tables and the JSON report.
  std::string name;
  topo::NetworkSpec topo;
  core::PolicyConfig policy;
  EngineKind engine = EngineKind::kPacket;
  sim::SimConfig sim;
  WorkloadSpec workload;
  /// Base seed of the cell. Trial t runs with util::job_seed(seed, t), so
  /// cells sharing a seed get paired trial seeds (the benches' device for
  /// comparing network types on identical workload draws).
  std::uint64_t seed = 1;
  int trials = 1;
  /// 0 = run to completion; otherwise stop at this simulated time and
  /// count still-running flows as unfinished.
  SimTime deadline = 0;
  /// Control-plane option: kOff (the default) is byte-identical to specs
  /// predating the field — it serializes nothing and wires nothing.
  /// kHostLocal enables transport-driven repath; kCentralized adds the
  /// global control::Controller loop in both built-in engines.
  control::ControllerConfig controller;
  /// None by default, which serializes nothing and wires nothing.
  FaultSpec faults;

  /// Empty string if the spec is runnable; otherwise a description of the
  /// first problem found.
  [[nodiscard]] std::string validate() const;

  /// Writes the spec's field list (below) as one JSON object.
  void to_json(JsonWriter& w) const;

  /// The spec's canonical form: to_json rendered standalone. Two specs are
  /// the same experiment iff their canonical JSON is byte-identical — the
  /// single source of truth behind hash(), the checkpoint journal, and the
  /// pnet-serve result cache.
  [[nodiscard]] std::string canonical_json() const;

  /// FNV-1a 64 over canonical_json(). Any parameter change (topology,
  /// workload, seed, engine...) changes the hash, so keyed stores
  /// (checkpoints, serve caches) can never alias distinct experiments
  /// short of a 64-bit collision.
  [[nodiscard]] std::uint64_t hash() const;
};

// ------------------------------------------------------------ field list
//
// The one definition of the spec's wire format, in the serialize(Archive&)
// idiom: one `visit(v, s)` per struct names each field once, in wire
// order, as `v(wire_name, member, write_if)`. The member carries its codec
// (integers, bools and strings as they are; enums by their name table; a
// nested struct as an object; `us(t)` a SimTime in microseconds; `gbps(r)`
// a rate in Gbps), and `write_if` says when the writer emits it. to_json
// walks the list, so it feeds hash(), the checkpoint key and every report;
// pnet-serve's decoder walks it too and rejects members it does not name.
// A field added to a committed block is written only when it differs from
// its default, so older specs keep their bytes; validate() bounds it if it
// can come off the wire.

/// `T` is `S` or `const S`: the writer visits const specs, the reader
/// mutable ones.
template <class T, class S>
concept FieldsOf = std::same_as<std::remove_const_t<T>, S>;

template <class T> struct Micros { T& value; };
template <class T> struct Gbps { T& value; };
template <class T> Micros<T> us(T& value) { return {value}; }
template <class T> Gbps<T> gbps(T& value) { return {value}; }

template <class V, FieldsOf<topo::NetworkSpec> T>
void visit(V& v, T& t) {
  const topo::NetworkSpec d;
  v("kind", t.topo);
  v("type", t.type);
  v("hosts", t.hosts);
  v("parallelism", t.parallelism);
  v("base_rate_gbps", gbps(t.base_rate_bps));
  v("seed", t.seed);
  v("jf_switches", t.jf_switches, t.jf_switches > 0);
  v("jf_degree", t.jf_degree, t.jf_degree > 0);
  v("jf_hosts_per_switch", t.jf_hosts_per_switch, t.jf_hosts_per_switch > 0);
  v("host_latency_us", us(t.host_latency), t.host_latency != d.host_latency);
  v("fabric_latency_us", us(t.fabric_latency),
    t.fabric_latency != d.fabric_latency);
}

template <class V, FieldsOf<core::PolicyConfig> T>
void visit(V& v, T& p) {
  const core::PolicyConfig d;
  v("policy", p.policy);
  v("k", p.k);
  v("ecmp_path_cap", p.ecmp_path_cap);
  v("multipath_cutoff_bytes", p.multipath_cutoff_bytes);
  v("coupling", p.coupling, p.coupling != d.coupling);
  v("allowed_planes", p.allowed_planes, !p.allowed_planes.empty());
}

/// Each pattern writes exactly the fields it reads.
template <class V, FieldsOf<WorkloadSpec> T>
void visit(V& v, T& w) {
  using P = WorkloadSpec::Pattern;
  const bool pairs = w.host_pairs();
  const bool closed = w.pattern == P::kClosedLoop;
  const bool hadoop = w.pattern == P::kHadoop;
  const bool traced = w.trace.has_value();
  v("pattern", w.pattern);
  v("flow_bytes", w.flow_bytes, !traced);
  v("rounds", w.rounds, !hadoop && w.pattern != P::kIncast);
  v("concurrent", w.concurrent, closed || hadoop);
  v("response_bytes", w.response_bytes, closed);
  v("trace", w.trace, closed && traced);
  v("trace_cap_bytes", w.trace_cap_bytes, closed && traced);
  v("start_jitter_us", us(w.start_jitter), pairs);
  v("round_gap_us", us(w.round_gap), pairs && w.round_gap > 0);
  v("fan_in", w.fan_in, w.pattern == P::kIncast);
  v("mappers", w.mappers, hadoop);
  v("reducers", w.reducers, hadoop);
  v("job_bytes", w.job_bytes, hadoop);
  v("load", w.load, w.pattern == P::kOpenLoop);
}

template <class V, FieldsOf<sim::SimConfig> T>
void visit(V& v, T& s) {
  const sim::TcpParams d;
  auto& t = s.tcp;
  v("queue_buffer_bytes", s.queue_buffer_bytes);
  v("ecn_threshold_bytes", s.ecn_threshold_bytes);
  v("priority_acks", s.priority_acks);
  v("trim_to_header", s.trim_to_header);
  v("dctcp", t.dctcp);
  v("mss", t.mss, t.mss != d.mss);
  v("ack_size", t.ack_size, t.ack_size != d.ack_size);
  v("initial_window_packets", t.initial_window_packets,
    t.initial_window_packets != d.initial_window_packets);
  v("max_cwnd_bytes", t.max_cwnd_bytes, t.max_cwnd_bytes != d.max_cwnd_bytes);
  v("limited_ss_threshold", t.limited_ss_threshold,
    t.limited_ss_threshold != d.limited_ss_threshold);
  v("recovery_burst_segments", t.recovery_burst_segments,
    t.recovery_burst_segments != d.recovery_burst_segments);
  v("min_rto_us", us(t.min_rto), t.min_rto != d.min_rto);
  v("initial_rto_us", us(t.initial_rto), t.initial_rto != d.initial_rto);
  v("path_suspect_threshold", t.path_suspect_threshold,
    t.path_suspect_threshold != d.path_suspect_threshold);
  v("dctcp_gain_shift", t.dctcp_gain_shift,
    t.dctcp_gain_shift != d.dctcp_gain_shift);
  v("mptcp_staggered_join", t.mptcp_staggered_join,
    t.mptcp_staggered_join != d.mptcp_staggered_join);
}

template <class V, FieldsOf<control::ControllerConfig> T>
void visit(V& v, T& c) {
  v("mode", c.mode);
  v("cadence_us", us(c.cadence));
  v("detect_delay_us", us(c.detect_delay));
  v("imbalance_threshold", c.imbalance_threshold);
  v("max_repins_per_tick", c.max_repins_per_tick);
  v("window", c.window);
}

template <class V, FieldsOf<FaultSpec::Outage> T>
void visit(V& v, T& o) {
  v("plane", o.plane);
  v("at_us", us(o.at));
  v("for_us", us(o.down_for));
}

template <class V, FieldsOf<FaultSpec::LossyCables> T>
void visit(V& v, T& l) {
  v("cables", l.cables);
  v("at_us", us(l.at));
  v("for_us", us(l.duration));
  v("loss", l.loss);
}

template <class V, FieldsOf<FaultSpec> T>
void visit(V& v, T& f) {
  v("outage", f.outage, f.outage.has_value());
  v("lossy", f.lossy, f.lossy.has_value());
}

/// The controller and fault blocks appear only when set, and the engine
/// blocks only for the built-in engines (a custom trial function owns its
/// own inputs).
template <class V, FieldsOf<ExperimentSpec> T>
void visit(V& v, T& s) {
  const bool built_in = s.engine != EngineKind::kCustom;
  v("name", s.name);
  v("engine", s.engine);
  v("seed", s.seed);
  v("trials", s.trials);
  v("deadline_us", us(s.deadline), s.deadline > 0);
  v("controller", s.controller, s.controller.active());
  v("faults", s.faults, s.faults.any());
  v("topo", s.topo, built_in);
  v("policy", s.policy, built_in);
  v("workload", s.workload, built_in);
  v("sim", s.sim, built_in);
}

/// The JSON object the NetworkSpec list writes: the key of every store
/// that depends on the topology alone (pnet-serve's warm route caches).
[[nodiscard]] std::string canonical_json(const topo::NetworkSpec& topo);

/// FNV-1a 64 — the repository's canonical content hash (checkpoint keys,
/// serve cache keys, warm route-cache keys all use it over canonical JSON).
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// The fluid-engine scheme matching a packet-sim routing policy, so a
/// cell's --engine=fsim run models the same path choices its packet run
/// simulates. (kEcmp and kRoundRobin both pin one plane per flow; the
/// fluid model approximates round-robin by the ECMP plane hash, which has
/// the same per-plane load in expectation. kSizeThreshold maps per flow.)
[[nodiscard]] fsim::FsimConfig to_fsim_config(const core::PolicyConfig& policy,
                                              std::uint64_t flow_bytes = 0);

}  // namespace pnet::exp
