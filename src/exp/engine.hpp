// exp::Engine — the execution-strategy interface behind the experiment
// runner. An ExperimentSpec's EngineKind is just a factory key; the object
// that actually runs trials is one of these. The runner (and any direct
// caller) programs against the interface, so the packet simulator, the
// fluid simulator, and bench-supplied custom trial bodies are
// interchangeable per cell:
//
//   auto engine = exp::make_engine(spec.engine);
//   CellResult cell = engine->run(spec, {.telemetry = {...}});
//
// Telemetry rides the EngineContext: when `telemetry.enabled()`, the
// built-in engines instrument each trial with a per-trial
// telemetry::Telemetry block and fold its output into the TrialResult
// under "tm/"-prefixed keys (see fold_telemetry), which the Report
// serializes as the cell's telemetry block.
#pragma once

#include <functional>
#include <memory>

#include "exp/report.hpp"
#include "exp/spec.hpp"
#include "routing/route_cache.hpp"
#include "telemetry/telemetry.hpp"
#include "util/audit.hpp"
#include "util/cancel.hpp"

namespace pnet::exp {

/// What a trial body sees: the cell's spec, the trial index within the
/// cell, and the deterministic per-trial seed every random choice of the
/// trial must derive from. `route_cache` is the cell's handle on the
/// compiled route store of `spec.topo`'s network, and serves that network
/// and no other: the Runner shares one store among every cell, trial and
/// worker thread on the same topology, so path computation is done once
/// per run (entries are pure functions of (net, query) — results stay
/// bit-identical to private caching; see routing::RouteCache). A custom
/// trial that builds another network must route without it.
struct TrialContext {
  const ExperimentSpec& spec;
  int trial;
  std::uint64_t seed;
  std::shared_ptr<routing::RouteCache> route_cache;
  /// Per-trial instrumentation request (sampling interval, tracing).
  /// Disabled by default; custom trial bodies are free to honour it via
  /// make_telemetry/fold_telemetry like the built-in engines do.
  telemetry::Config telemetry{};
  /// Cooperative-cancellation token for this trial. Inert by default; the
  /// runner arms it with the --trial-timeout / run-deadline watchdogs.
  /// Built-in engines poll it and throw TrialCancelled; custom trial
  /// bodies should poll `cancel.cancelled()` in their long loops (or call
  /// throw_if_cancelled) to honour timeouts.
  util::CancelToken cancel{};
  /// When true, built-in engines attach an invariant auditor and raise
  /// util::InvariantViolation at end of trial on any breach.
  bool audit = false;
  /// Packet-engine shard workers (SimHarness::Options::sim_threads); a
  /// pool size only, so results are byte-identical across all values.
  /// Deliberately NOT part of ExperimentSpec: like the runner's thread
  /// count, it must not perturb spec hashes or canonical JSON.
  int sim_threads = 1;
};

using TrialFn = std::function<TrialResult(const TrialContext&)>;

/// Cell-level inputs an Engine::run invocation shares across its trials.
struct EngineContext {
  /// Null = the engine builds a private cache per cell.
  std::shared_ptr<routing::RouteCache> route_cache{};
  telemetry::Config telemetry{};
  /// Shared across every trial of the cell (no per-trial watchdog here;
  /// that is the runner's job — this covers direct Engine::run callers).
  util::CancelToken cancel{};
  bool audit = false;
  /// Forwarded into every TrialContext (see its sim_threads field).
  int sim_threads = 1;
};

/// Execution strategy for one experiment cell's trials.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Runs every trial of `spec` sequentially (trial t seeded with
  /// util::job_seed(spec.seed, t)) and assembles the CellResult. The
  /// Runner bypasses this to fan (cell, trial) jobs over threads, calling
  /// run_trial directly — results are identical by the determinism
  /// contract.
  [[nodiscard]] virtual CellResult run(const ExperimentSpec& spec,
                                       const EngineContext& ctx);

  /// One trial. Must be thread-safe across distinct contexts: the runner
  /// calls this concurrently from its worker pool.
  [[nodiscard]] virtual TrialResult run_trial(const TrialContext& ctx) = 0;
};

/// core::SimHarness over the packet simulator (src/sim). Runs every
/// workload pattern: the host-pair patterns round by round, and each
/// driver pattern (closed loop, open loop, Hadoop, incast) as one driver
/// started at t = 0 and run once.
class PacketEngine final : public Engine {
 public:
  [[nodiscard]] TrialResult run_trial(const TrialContext& ctx) override;
};

/// fsim::FluidSimulator — flow-level max-min rates, 100x+ faster.
/// Host-pair patterns only: it throws std::invalid_argument on a driver
/// pattern, and on telemetry fluid_telemetry_problem rejects.
class FluidEngine final : public Engine {
 public:
  [[nodiscard]] TrialResult run_trial(const TrialContext& ctx) override;
};

/// Wraps a bench-supplied trial function (LP studies, fault timelines,
/// cost models...) in the Engine interface.
class CustomEngine final : public Engine {
 public:
  explicit CustomEngine(TrialFn fn) : fn_(std::move(fn)) {}
  [[nodiscard]] TrialResult run_trial(const TrialContext& ctx) override {
    return fn_(ctx);
  }

 private:
  TrialFn fn_;
};

/// Factory: resolves a spec's EngineKind. kCustom requires `fn`; passing a
/// fn with a built-in kind also wraps it (the fn overrides the built-in
/// body, matching the Runner's historical Cell{spec, fn} semantics).
/// Throws std::invalid_argument for kCustom without a fn.
[[nodiscard]] std::unique_ptr<Engine> make_engine(EngineKind kind,
                                                  TrialFn fn = {});

/// Throws TrialCancelled when `cancel` has fired — Reason::kDeadline maps
/// to TrialErrorKind::kTimeout (the per-trial watchdog), anything else to
/// kCancelled (run deadline / external cancel). The messages carry no
/// wall-clock values, keeping error reports deterministic. No-op
/// otherwise; custom trial bodies can call this at loop boundaries.
void throw_if_cancelled(const util::CancelToken& cancel);

/// Builds the per-trial telemetry block a TrialContext asks for, or null
/// when instrumentation is disabled (the zero-overhead path).
[[nodiscard]] std::shared_ptr<telemetry::Telemetry> make_telemetry(
    const telemetry::Config& config);

/// Empty if FluidEngine can record `telemetry` for `workload`, else why
/// not (the Runner checks it before any trial runs).
[[nodiscard]] std::string fluid_telemetry_problem(
    const WorkloadSpec& workload, const telemetry::Config& telemetry);

/// Adds the controller's decision counters to metrics["ctl/<name>"].
/// Null-safe: controller-off trials write none and keep their bytes.
void fold_controller(const control::Controller* controller,
                     TrialResult& result);

/// Folds a trial's telemetry into its TrialResult: sampler series become
/// samples["tm/<name>"] (plus the shared time axis samples["tm/t_us"]),
/// registry counters and gauges become metrics["tm/<name>"], and a
/// non-empty trace is attached as TrialResult::trace. Null-safe.
void fold_telemetry(const std::shared_ptr<telemetry::Telemetry>& telemetry,
                    TrialResult& result);

}  // namespace pnet::exp
