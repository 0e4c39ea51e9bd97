// Declarative description of one experiment cell.
//
// The paper's evaluation is a grid of repeated experiments — topology x
// policy x workload x seed — and an ExperimentSpec is one cell of that
// grid: everything needed to reconstruct the run bit-for-bit. The
// exp::Runner consumes specs (fanning cells and trials over OS threads),
// and the exp::Report serializes them into the JSON report so a result can
// always be traced back to its exact configuration.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "control/controller.hpp"
#include "core/path_selector.hpp"
#include "exp/json.hpp"
#include "fsim/fluid.hpp"
#include "sim/network.hpp"
#include "topo/parallel.hpp"
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
/// Registry mirror of core::policy_from_string: unknown names return
/// nullopt, callers fail fast listing engine_names().
[[nodiscard]] std::optional<EngineKind> engine_from_string(
    std::string_view name);
[[nodiscard]] std::string engine_names();

/// Synthetic workload of the built-in engines. The host-pair patterns run
/// `rounds` pattern instances of fixed-size flows, each flow jittered
/// uniformly in [round start, round start + start_jitter). kClosedLoop
/// (packet engine only) is the RPC/trace driver of §5.2.1 and §5.3: every
/// host runs `concurrent` workers from t = 0, and each worker issues
/// `rounds` back-to-back requests to random destinations, each request
/// optionally answered by a `response_bytes` reply.
struct WorkloadSpec {
  enum class Pattern : std::uint8_t {
    kPermutation,    // each host sends to exactly one other host
    kAllToAll,       // every ordered host pair
    kRackAllToAll,   // one representative host per rack pair
    kClosedLoop,     // workload::ClosedLoopApp on every host
  };

  Pattern pattern = Pattern::kPermutation;
  /// Flow size; for kClosedLoop the request size unless `trace` is set.
  std::uint64_t flow_bytes = 1'000'000;
  /// Pattern rounds; for kClosedLoop the requests per worker.
  int rounds = 1;
  /// Host-pair patterns only (closed-loop workers all start at t = 0).
  SimTime start_jitter = 10 * units::kMicrosecond;
  /// Host-pair patterns only. 0: rounds run back-to-back (each drains
  /// before the next starts). >0: round r's flows are all scheduled at
  /// r * round_gap + jitter.
  SimTime round_gap = 0;

  // kClosedLoop only.
  /// Workers per host.
  int concurrent = 1;
  /// 0: one-way requests; otherwise each request is an RPC whose reply of
  /// this size must land before the worker's next request.
  std::uint64_t response_bytes = 0;
  /// Draw request sizes from this published flow-size CDF instead of
  /// using `flow_bytes`.
  std::optional<workload::Trace> trace;
  /// Truncates trace draws at this size (0 = uncapped).
  std::uint64_t trace_cap_bytes = 0;
};

[[nodiscard]] const char* to_string(WorkloadSpec::Pattern pattern);

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

  /// Empty string if the spec is runnable; otherwise a description of the
  /// first problem found.
  [[nodiscard]] std::string validate() const;

  /// Serializes the spec (deterministically) into an open JSON object.
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
