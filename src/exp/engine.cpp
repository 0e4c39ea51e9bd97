#include "exp/engine.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "control/controller.hpp"
#include "control/dataplanes.hpp"
#include "core/harness.hpp"
#include "util/parallel.hpp"
#include "workload/patterns.hpp"

namespace pnet::exp {

namespace {

std::vector<workload::HostPair> pattern_pairs(
    const WorkloadSpec& workload, const topo::ParallelNetwork& net,
    Rng& rng) {
  switch (workload.pattern) {
    case WorkloadSpec::Pattern::kPermutation:
      return workload::permutation_pairs(net.num_hosts(), rng);
    case WorkloadSpec::Pattern::kAllToAll:
      return workload::all_to_all_pairs(net.num_hosts());
    case WorkloadSpec::Pattern::kRackAllToAll:
      return workload::rack_all_to_all_pairs(net);
  }
  return {};
}

SimTime jittered(SimTime base, SimTime jitter, Rng& rng) {
  if (jitter <= 0) return base;
  return base + static_cast<SimTime>(
                    rng.next_below(static_cast<std::uint64_t>(jitter)));
}

/// Folds the controller's decision counters into the trial metrics.
/// Written only for trials that actually ran a Controller, so
/// controller-off reports keep their seed bytes.
void fold_controller(const control::Controller* controller, TrialResult& r) {
  if (controller == nullptr) return;
  r.metrics["ctl/ticks"] += static_cast<double>(controller->ticks());
  r.metrics["ctl/repins"] += static_cast<double>(controller->repins());
  r.metrics["ctl/plane_events"] +=
      static_cast<double>(controller->plane_events());
  r.metrics["ctl/churn_skips"] +=
      static_cast<double>(controller->churn_skips());
}

}  // namespace

void throw_if_cancelled(const util::CancelToken& cancel) {
  if (!cancel.cancelled()) return;
  if (cancel.reason() == util::CancelToken::Reason::kDeadline) {
    throw TrialCancelled(TrialErrorKind::kTimeout,
                         "trial wall-clock budget expired");
  }
  throw TrialCancelled(TrialErrorKind::kCancelled, "run cancelled");
}

CellResult Engine::run(const ExperimentSpec& spec, const EngineContext& ctx) {
  CellResult cell;
  cell.spec = spec;
  cell.trials.reserve(static_cast<std::size_t>(spec.trials));
  for (int t = 0; t < spec.trials; ++t) {
    const TrialContext trial{spec, t,
                             util::job_seed(spec.seed,
                                            static_cast<std::uint64_t>(t)),
                             ctx.route_cache, ctx.telemetry, ctx.cancel,
                             ctx.audit, ctx.sim_threads};
    cell.trials.push_back(run_trial(trial));
  }
  return cell;
}

TrialResult PacketEngine::run_trial(const TrialContext& ctx) {
  const ExperimentSpec& spec = ctx.spec;
  const WorkloadSpec& wl = spec.workload;
  TrialResult r;
  auto telemetry = make_telemetry(ctx.telemetry);
  util::Audit audit;  // collecting; only wired when ctx.audit
  if (ctx.audit && telemetry != nullptr) {
    audit.set_counter(telemetry->registry.counter("audit_violations"));
  }
  core::SimHarness harness({.spec = spec.topo,
                            .policy = spec.policy,
                            .sim_config = spec.sim,
                            .route_cache = ctx.route_cache,
                            .telemetry = telemetry.get(),
                            .cancel = ctx.cancel.is_armed() ? &ctx.cancel
                                                         : nullptr,
                            .audit = ctx.audit ? &audit : nullptr,
                            .sim_threads = ctx.sim_threads});
  // Control plane (DESIGN.md §5j). Any active mode arms transport repath
  // metadata; kCentralized additionally runs the global Controller off the
  // control queue, where ticks land at barrier epochs — that is what keeps
  // controller-enabled reports byte-identical at every --sim-threads
  // value. When the mode is kOff nothing below touches the harness.
  std::unique_ptr<control::PacketDataplane> dataplane;
  std::unique_ptr<control::Controller> controller;
  std::unique_ptr<control::ControlDriver> control_driver;
  if (spec.controller.active()) {
    harness.selector().enable_repath(harness.factory());
  }
  if (spec.controller.centralized()) {
    dataplane = std::make_unique<control::PacketDataplane>(harness);
    controller =
        std::make_unique<control::Controller>(spec.controller, *dataplane);
    control_driver = std::make_unique<control::ControlDriver>(
        harness, *controller, spec.controller.cadence);
    control_driver->start(harness.events().now());
  }
  Rng rng(ctx.seed);
  for (int round = 0; round < wl.rounds; ++round) {
    if (ctx.cancel.cancelled()) break;
    const SimTime base =
        wl.round_gap > 0 ? round * wl.round_gap : harness.events().now();
    for (const auto& [src, dst] :
         pattern_pairs(wl, harness.net(), rng)) {
      ++r.flows_started;
      harness.starter()(src, dst, wl.flow_bytes,
                        jittered(base, wl.start_jitter, rng),
                        [&r](const sim::FlowRecord& rec) {
                          r.fct_us.push_back(
                              units::to_microseconds(rec.end - rec.start));
                          ++r.flows_finished;
                        });
    }
    if (wl.round_gap == 0) {
      // Back-to-back rounds: drain this round before drawing the next.
      if (spec.deadline > 0) {
        harness.run_until(spec.deadline);
      } else {
        harness.run();
      }
    }
  }
  if (wl.round_gap > 0) {
    if (spec.deadline > 0) {
      harness.run_until(spec.deadline);
    } else {
      harness.run();
    }
  }
  // Finalize before any throw: a cancelled trial must still log its
  // partial flow records (and run the conservation sweep) — the records
  // stay reachable through the harness for direct callers even though the
  // runner discards this TrialResult.
  harness.finalize(harness.events().now());
  throw_if_cancelled(ctx.cancel);
  if (ctx.audit) audit.check();  // raises InvariantViolation on breaches
  r.delivered_bytes =
      static_cast<double>(harness.factory().total_delivered_bytes());
  r.sim_seconds = units::to_seconds(harness.events().now());
  r.events = harness.dispatched();  // control queue + all shards
  // Misconfiguration telltale (out-of-range loss/rate-scale settings were
  // clamped); emitted only when nonzero so clean-run report bytes stay
  // byte-identical to pre-clamping builds.
  if (const std::uint64_t clamped =
          harness.network().total_config_clamped();
      clamped > 0) {
    r.metrics["config_clamped"] = static_cast<double>(clamped);
  }
  fold_controller(controller.get(), r);
  fold_telemetry(telemetry, r);
  return r;
}

TrialResult FluidEngine::run_trial(const TrialContext& ctx) {
  const ExperimentSpec& spec = ctx.spec;
  const WorkloadSpec& wl = spec.workload;
  const fsim::FsimConfig config = to_fsim_config(spec.policy, wl.flow_bytes);
  const auto net = topo::build_network(spec.topo);
  TrialResult r;
  Rng rng(ctx.seed);
  util::Audit audit;  // collecting; only wired when ctx.audit
  const util::CancelToken* cancel =
      ctx.cancel.is_armed() ? &ctx.cancel : nullptr;

  auto finish = [&r](fsim::FluidSimulator& fluid) {
    for (double fct : fluid.fct_us()) r.fct_us.push_back(fct);
    r.flows_finished += fluid.results().size();
    r.delivered_bytes += fluid.delivered_bytes();
    r.sim_seconds += units::to_seconds(fluid.now());
    r.events += fluid.events();
  };

  // Control plane (DESIGN.md §5j): the fluid engine calls Controller::tick
  // from inside its event loop via set_control, so control decisions are
  // ordinary simulation events here too. The hooks must outlive run();
  // callers keep the returned pair alive alongside the simulator.
  struct ControlHooks {
    std::unique_ptr<control::FluidDataplane> dataplane;
    std::unique_ptr<control::Controller> controller;
  };
  auto attach_control = [&spec](fsim::FluidSimulator& fluid) {
    ControlHooks hooks;
    if (!spec.controller.centralized()) return hooks;
    hooks.dataplane = std::make_unique<control::FluidDataplane>(fluid);
    hooks.controller = std::make_unique<control::Controller>(
        spec.controller, *hooks.dataplane);
    control::Controller* ctl = hooks.controller.get();
    ctl->start(fluid.now());
    fluid.set_control(spec.controller.cadence,
                      [ctl](SimTime t) { ctl->tick(t); });
    return hooks;
  };

  if (wl.round_gap > 0 || wl.rounds == 1) {
    // One simulator for the whole trial (overlapping rounds share it and
    // its allocator state) — the only shape where a single sample grid /
    // trace covers the trial, so telemetry attaches here.
    auto telemetry = make_telemetry(ctx.telemetry);
    if (ctx.audit && telemetry != nullptr) {
      audit.set_counter(telemetry->registry.counter("audit_violations"));
    }
    fsim::FluidSimulator fluid(net, config, ctx.route_cache);
    fluid.set_telemetry(telemetry.get());
    if (cancel != nullptr) fluid.set_cancel(cancel);
    if (ctx.audit) fluid.set_audit(&audit);
    const ControlHooks hooks = attach_control(fluid);
    for (int round = 0; round < wl.rounds; ++round) {
      const SimTime base = round * wl.round_gap;
      for (const auto& [src, dst] : pattern_pairs(wl, net, rng)) {
        ++r.flows_started;
        fluid.add_flow({src, dst, wl.flow_bytes,
                        jittered(base, wl.start_jitter, rng)});
      }
    }
    if (spec.deadline > 0) {
      fluid.run_until(spec.deadline);
    } else {
      fluid.run();
    }
    finish(fluid);
    fold_controller(hooks.controller.get(), r);
    fold_telemetry(telemetry, r);
  } else {
    // Back-to-back rounds: a fresh simulator per round, as the packet
    // engine's drained-queue equivalent. Simulated clocks restart per
    // round, so no cross-round telemetry is collected.
    for (int round = 0; round < wl.rounds; ++round) {
      if (ctx.cancel.cancelled()) break;
      fsim::FluidSimulator fluid(net, config, ctx.route_cache);
      if (cancel != nullptr) fluid.set_cancel(cancel);
      if (ctx.audit) fluid.set_audit(&audit);
      const ControlHooks hooks = attach_control(fluid);
      for (const auto& [src, dst] : pattern_pairs(wl, net, rng)) {
        ++r.flows_started;
        fluid.add_flow({src, dst, wl.flow_bytes,
                        jittered(0, wl.start_jitter, rng)});
      }
      if (spec.deadline > 0) {
        fluid.run_until(spec.deadline);
      } else {
        fluid.run();
      }
      finish(fluid);
      fold_controller(hooks.controller.get(), r);
    }
  }
  throw_if_cancelled(ctx.cancel);
  if (ctx.audit) audit.check();  // raises InvariantViolation on breaches
  return r;
}

std::unique_ptr<Engine> make_engine(EngineKind kind, TrialFn fn) {
  if (fn) return std::make_unique<CustomEngine>(std::move(fn));
  switch (kind) {
    case EngineKind::kPacket: return std::make_unique<PacketEngine>();
    case EngineKind::kFsim: return std::make_unique<FluidEngine>();
    case EngineKind::kCustom:
      throw std::invalid_argument(
          "exp::make_engine: EngineKind::kCustom requires a trial function");
  }
  throw std::invalid_argument("exp::make_engine: unknown EngineKind");
}

std::shared_ptr<telemetry::Telemetry> make_telemetry(
    const telemetry::Config& config) {
  if (!config.enabled()) return nullptr;
  return std::make_shared<telemetry::Telemetry>(config);
}

void fold_telemetry(const std::shared_ptr<telemetry::Telemetry>& telemetry,
                    TrialResult& result) {
  if (telemetry == nullptr) return;
  const auto& sampler = telemetry->sampler;
  if (!sampler.times().empty()) {
    auto& t_us = result.samples["tm/t_us"];
    t_us.reserve(sampler.times().size());
    for (const SimTime t : sampler.times()) {
      t_us.push_back(units::to_microseconds(t));
    }
    for (std::size_t i = 0; i < sampler.num_series(); ++i) {
      result.samples["tm/" + sampler.name(i)] = sampler.values(i);
    }
  }
  const telemetry::Registry::Snapshot snap = telemetry->registry.snapshot();
  for (const auto& [name, value] : snap.counters) {
    result.metrics["tm/" + name] = static_cast<double>(value);
  }
  for (const auto& [name, value] : snap.gauges) {
    result.metrics["tm/" + name] = value;
  }
  if (telemetry->trace.size() > 0) {
    // Aliasing shared_ptr: keeps the whole Telemetry block alive for as
    // long as the report holds the trace.
    result.trace = std::shared_ptr<const telemetry::Trace>(
        telemetry, &telemetry->trace);
  }
}

}  // namespace pnet::exp
