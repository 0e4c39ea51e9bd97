// Shared plumbing for the per-figure bench binaries: flag handling, network
// construction, the LP throughput runners used by Figs 6-8, and the
// bench::Experiment adapter that funnels every bench through the
// src/exp stack (ExperimentSpec -> exp::Runner -> exp::Report). Every
// bench normalizes exactly as the paper does (against the serial
// low-bandwidth network unless stated otherwise), prints each figure's
// series as a TextTable, and can emit the structured JSON report with
// --json=PATH.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "control/controller.hpp"
#include "core/harness.hpp"
#include "exp/runner.hpp"
#include "fsim/fluid.hpp"
#include "lp/mcf.hpp"
#include "routing/ecmp.hpp"
#include "routing/plane_paths.hpp"
#include "util/audit.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/patterns.hpp"

namespace pnet::bench {

inline const topo::NetworkType kAllTypes[] = {
    topo::NetworkType::kSerialLow,
    topo::NetworkType::kParallelHomogeneous,
    topo::NetworkType::kParallelHeterogeneous,
    topo::NetworkType::kSerialHigh,
};

inline topo::NetworkSpec make_spec(topo::TopoKind kind,
                                   topo::NetworkType type, int hosts,
                                   int parallelism, std::uint64_t seed) {
  topo::NetworkSpec spec;
  spec.topo = kind;
  spec.type = type;
  spec.hosts = hosts;
  spec.parallelism = parallelism;
  spec.seed = seed;
  return spec;
}

/// A cell of one of the driver patterns (closed loop, open loop, Hadoop,
/// incast; exp::WorkloadSpec, DESIGN.md §5c) with single-path
/// shortest-plane routing — the shape the RPC, trace, Hadoop, open-loop
/// and incast benches share. Every trial runs on the network
/// util::job_seed(seed, 0) draws: the instance each of these benches'
/// trial 0 built back when trials drew their own topology.
inline exp::ExperimentSpec driver_spec(std::string name,
                                       exp::WorkloadSpec::Pattern pattern,
                                       topo::TopoKind kind,
                                       topo::NetworkType type, int hosts,
                                       int planes, std::uint64_t seed) {
  exp::ExperimentSpec spec;
  spec.name = std::move(name);
  spec.topo = make_spec(kind, type, hosts, planes, util::job_seed(seed, 0));
  spec.policy.policy = core::RoutingPolicy::kShortestPlane;
  spec.workload.pattern = pattern;
  spec.seed = seed;
  return spec;
}

/// A small non-complete Jellyfish on trial 0's network: 5-regular on 8
/// switches with 2 hosts each, so at most 16 hosts. The default shape
/// derivation clamps small runs to an 11-switch 10-regular graph, the
/// complete graph, where every seed wires identically and heterogeneous
/// planes degenerate to homogeneous ones.
inline topo::NetworkSpec pinned_jellyfish(topo::NetworkType type, int hosts,
                                          std::uint64_t seed) {
  topo::NetworkSpec spec = make_spec(topo::TopoKind::kJellyfish, type, hosts,
                                     4, util::job_seed(seed, 0));
  spec.jf_switches = 8;
  spec.jf_degree = 5;
  spec.jf_hosts_per_switch = 2;
  return spec;
}

/// Routing schemes for the LP experiments of section 5.1.1.
enum class LpScheme {
  /// Host hashes each flow onto one plane; inside the plane the flow may
  /// split over all equal-cost shortest paths (ideal switch ECMP).
  kEcmp,
  /// MPTCP + K globally-shortest paths across planes.
  kKsp,
};

struct LpRun {
  double total_throughput_bps = 0.0;
  double alpha = 0.0;
};

/// Ideal throughput with computed routes (Figs 6a/6b/8a/8b and the
/// multipath sweeps 6c/8c): maximum total throughput subject to the
/// computed routes, the paper's "constrain the flows in the LP solver to
/// use the routes computed by ECMP or KSP".
///
/// ECMP: the host hashes each flow onto one plane; inside the plane the
/// flow may use any of its equal-cost shortest paths (what switch-level
/// hashing achieves in aggregate). KSP: the flow may use its K globally-
/// shortest paths across all planes (MPTCP subflows). KSP tie-breaks are
/// randomized per flow so equal-cost-rich fabrics (fat trees) do not
/// collapse onto one corner of the fabric.
inline LpRun lp_throughput(const topo::ParallelNetwork& net,
                           const std::vector<workload::HostPair>& pairs,
                           LpScheme scheme, int k, double epsilon) {
  const lp::LinkIndex index(net);
  std::vector<lp::Commodity> commodities;
  commodities.reserve(pairs.size());
  std::uint64_t flow_id = 0;
  for (const auto& [src, dst] : pairs) {
    lp::Commodity commodity;
    commodity.demand = net.host_uplink_bps();
    std::vector<routing::Path> paths;
    if (scheme == LpScheme::kEcmp) {
      const int plane = routing::ecmp_pick(
          mix64(flow_id * 0x9E3779B9ULL + 1), net.num_planes());
      paths = routing::ecmp_paths_in_plane(net, plane, src, dst, 64);
    } else {
      paths = routing::ksp_across_planes(net, src, dst, k,
                                         mix64(flow_id + 0xABCD));
    }
    for (const auto& path : paths) {
      commodity.paths.push_back(index.to_global(path));
    }
    commodities.push_back(std::move(commodity));
    ++flow_id;
  }
  lp::McfOptions options;
  options.epsilon = epsilon;
  const auto result =
      lp::max_total_flow(index.capacity(), commodities, options);
  return {result.total_throughput, result.alpha};
}

// Summary statistics now live in the experiment layer; the bench names
// stay for the figure code.
using exp::summarize;

/// Prints a CDF as x/y rows, downsampled for readability.
inline void print_cdf(const std::string& title, const Cdf& cdf,
                      const std::string& x_label, std::size_t points = 15) {
  TextTable table(title, {x_label, "cdf"});
  for (const auto& [x, p] : cdf.resampled(points).points) {
    table.add_row(format_double(x, 2), {p}, 3);
  }
  table.print();
}

/// Standard bench prologue, shared by every bench binary: --help prints
/// `usage` (plus the common-flag epilogue) and exits; a flag not named in
/// `usage` aborts instead of silently falling back to its default; then
/// the figure header line is printed.
inline void print_header(const std::string& what, const Flags& flags,
                         const char* usage) {
  flags.handle_usage(usage == nullptr ? std::string_view{} : usage);
  std::printf("# %s\n# scale=%s (use --scale=paper or PNET_SCALE=paper for "
              "paper-size runs)\n\n",
              what.c_str(), flags.paper_scale() ? "paper" : "default");
}

// --------------------------------------------------------------- engines

/// Which simulation engine a bench drives: the packet-level simulator
/// (src/sim, exact but small-scale) or the flow-level fluid simulator
/// (src/fsim, max-min rates, 100x+ faster). Selected with --engine.
using EngineKind = exp::EngineKind;
using exp::to_string;

inline EngineKind parse_engine_or(const Flags& flags, EngineKind def) {
  const auto value = flags.get("engine", exp::to_string(def));
  if (const auto engine = util::from_string<EngineKind>(value);
      engine.has_value() && *engine != EngineKind::kCustom) {
    return *engine;
  }
  std::fprintf(stderr, "%s: unknown --engine '%s' (valid: %s)\n",
               flags.program().c_str(), value.c_str(),
               util::enum_names<EngineKind>().c_str());
  std::exit(2);
}

inline EngineKind parse_engine(const Flags& flags) {
  return parse_engine_or(flags, EngineKind::kPacket);
}

/// The --controller flags, shared by every bench (they ride the common-flag
/// whitelist): --controller=off|host-local|centralized picks the mode,
/// --controller-cadence / --controller-detect-delay (simulated ms) tune the
/// loop. Unknown mode names fail fast listing every mode name.
inline control::ControllerConfig parse_controller(const Flags& flags) {
  control::ControllerConfig config;
  const auto value = flags.get("controller", "off");
  const auto mode = util::from_string<control::ControllerMode>(value);
  if (!mode.has_value()) {
    std::fprintf(stderr, "%s: unknown --controller '%s' (valid: %s)\n",
                 flags.program().c_str(), value.c_str(),
                 util::enum_names<control::ControllerMode>().c_str());
    std::exit(2);
  }
  config.mode = *mode;
  config.cadence = static_cast<SimTime>(
      flags.get_double("controller-cadence", 1.0) * units::kMillisecond);
  config.detect_delay = static_cast<SimTime>(
      flags.get_double("controller-detect-delay", 1.0) *
      units::kMillisecond);
  return config;
}

/// For benches whose cells each pin their own controller mode, the point
/// of their ablations: --controller would merge into the cells left at
/// off, so it exits 2 naming the flag. --controller-cadence and
/// --controller-detect-delay still act.
inline void reject_controller_flag(const Flags& flags) {
  if (!flags.has("controller")) return;
  std::fprintf(stderr, "%s: --controller does not apply: every cell pins "
               "its own control-plane mode\n", flags.program().c_str());
  std::exit(2);
}

/// Wall-clock stopwatch for engine speedup comparisons.
class WallClock {
 public:
  WallClock() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// ------------------------------------------------------------ experiment

/// The adapter every bench runs its cells through. Reads the common
/// runner flags (--trials, --threads, --sim-threads, --json,
/// --json-timing, --require-complete, --trace, --sample-every, plus the
/// resilience knobs --trial-timeout, --run-deadline, --retries,
/// --checkpoint, --audit), queues cells, fans them out through
/// exp::Runner, and on
/// finish() writes the structured JSON report (and the --trace export),
/// reports trial errors, and enforces --require-complete.
///
/// A bench whose figures are sampler series passes its default sample
/// grid, `sample_every_ms`; --sample-every overrides it.
///
/// Typical shape:
///   Experiment experiment(flags, "fig9");
///   experiment.add(spec);                      // built-in engine cell
///   experiment.add(spec2, my_trial_fn);        // custom trial body
///   const auto results = experiment.run();     // one parallel pass
///   ... print TextTables from results ...
///   return experiment.finish();
class Experiment {
 public:
  Experiment(const Flags& flags, std::string name,
             double sample_every_ms = 0.0)
      : program_(flags.program()),
        report_(std::move(name)),
        runner_(flags.get_int("threads", 0)),
        json_path_(flags.get("json", "")),
        trace_path_(flags.get("trace", "")),
        json_timing_(flags.get_bool("json-timing", true)),
        require_complete_(flags.get_bool("require-complete", false)),
        trials_override_(flags.get_int("trials", 0)) {
    telemetry::Config cfg;
    cfg.sample_every = static_cast<SimTime>(
        flags.get_double("sample-every", sample_every_ms) *
        units::kMillisecond);
    cfg.trace = !trace_path_.empty();
    runner_.set_telemetry(cfg);
    runner_.set_trial_timeout(flags.get_double("trial-timeout", 0.0));
    runner_.set_run_deadline(flags.get_double("run-deadline", 0.0));
    runner_.set_retries(flags.get_int("retries", 0));
    runner_.set_checkpoint(flags.get("checkpoint", ""));
    runner_.set_audit(flags.get_bool("audit", false) ||
                      util::Audit::env_enabled());
    // Packet-engine shard workers: a pool size only (values <= 1 run the
    // shards inline), so reports are byte-identical across values.
    runner_.set_sim_threads(flags.get_int("sim-threads", 1));
    // Control plane: --controller=off leaves every cell byte-identical to
    // the seed; other modes merge into cells that did not set their own.
    runner_.set_controller(parse_controller(flags));
  }

  /// The bench's trial count: --trials when given, else `def`.
  [[nodiscard]] int trials(int def) const {
    return trials_override_ > 0 ? trials_override_ : def;
  }

  /// Queues one cell (run later by run()). Returns its index within the
  /// pending batch. With no fn the spec's engine must be kPacket or kFsim.
  std::size_t add(exp::ExperimentSpec spec, exp::TrialFn fn = {}) {
    cells_.push_back({std::move(spec), std::move(fn)});
    return cells_.size() - 1;
  }

  /// Runs every cell queued since the last run() through one exp::Runner
  /// pass (all trials of all cells fan out together), appends the results
  /// to the report, and returns them index-aligned with the add() calls.
  /// A cell the Runner rejects before running (an invalid spec, a knob it
  /// cannot honour) exits 2 with the Runner's message.
  std::vector<exp::CellResult> run() {
    const WallClock clock;
    std::vector<exp::CellResult> results;
    try {
      results = runner_.run(cells_);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s: %s\n", program_.c_str(), e.what());
      std::exit(2);
    }
    report_.record_runtime(clock.seconds(), runner_.threads(),
                           runner_.sim_threads());
    cells_.clear();
    for (const auto& cell : results) report_.add(cell);
    return results;
  }

  /// Bench epilogue: writes the --json report (runtime block included
  /// unless --json-timing=0), warns about unfinished flows and failed
  /// trials, and returns the process exit code — nonzero when
  /// --require-complete is set and any flow was left unfinished or any
  /// trial errored, or the report could not be written.
  [[nodiscard]] int finish() const {
    bool ok = true;
    if (!json_path_.empty()) {
      ok = report_.write_json(json_path_, json_timing_);
    }
    if (!trace_path_.empty()) {
      ok = report_.write_trace(trace_path_) && ok;
    }
    bool incomplete = false;
    const std::uint64_t unfinished = report_.total_unfinished_flows();
    if (unfinished > 0) {
      incomplete = true;
      std::fprintf(stderr, "%s: %llu flow(s) unfinished%s\n",
                   report_.bench().c_str(),
                   static_cast<unsigned long long>(unfinished),
                   require_complete_ ? " (--require-complete: failing)" : "");
    }
    if (report_.total_trial_errors() > 0) {
      incomplete = true;
      for (const auto& cell : report_.cells()) {
        for (const auto& error : cell.errors) {
          std::fprintf(stderr, "%s: cell '%s' trial %d failed (%s): %s\n",
                       report_.bench().c_str(), cell.spec.name.c_str(),
                       error.trial, exp::to_string(error.kind),
                       error.what.c_str());
        }
      }
      if (require_complete_) {
        std::fprintf(stderr, "%s: %llu trial error(s) "
                     "(--require-complete: failing)\n",
                     report_.bench().c_str(),
                     static_cast<unsigned long long>(
                         report_.total_trial_errors()));
      }
    }
    if (incomplete && require_complete_) return 1;
    return ok ? 0 : 1;
  }

 private:
  std::string program_;
  exp::Report report_;
  exp::Runner runner_;
  std::string json_path_;
  std::string trace_path_;
  bool json_timing_;
  bool require_complete_;
  int trials_override_;
  std::vector<exp::Cell> cells_;
};

}  // namespace pnet::bench
