#include "exp/engine.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "control/controller.hpp"
#include "control/dataplanes.hpp"
#include "core/harness.hpp"
#include "util/parallel.hpp"
#include "workload/apps.hpp"
#include "workload/open_loop.hpp"
#include "workload/patterns.hpp"
#include "workload/traces.hpp"

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
    default:
      break;  // a driver pattern: PacketEngine runs its driver
  }
  throw std::invalid_argument(std::string("exp: workload pattern ") +
                              util::to_name(workload.pattern) +
                              " has no host-pair draw");
}

/// A closed-loop worker's request sizes: fixed, or trace draws.
workload::SizePicker request_sizes(const WorkloadSpec& workload) {
  if (!workload.trace.has_value()) {
    return [bytes = workload.flow_bytes](Rng&) { return bytes; };
  }
  return [&dist = workload::FlowSizeDistribution::of(*workload.trace),
          cap = workload.trace_cap_bytes](Rng& rng) {
    return dist.sample(rng, cap);
  };
}

SimTime jittered(SimTime base, SimTime jitter, Rng& rng) {
  if (jitter <= 0) return base;
  return base + static_cast<SimTime>(
                    rng.next_below(static_cast<std::uint64_t>(jitter)));
}

/// The driver of a non-host-pair pattern, built on the harness: `start`
/// launches it at t = 0, and `read` fills the trial's results once the
/// harness is finalized.
struct Driver {
  std::function<void()> start;
  std::function<void(TrialResult&)> read;
};

Driver make_driver(const ExperimentSpec& spec, std::uint64_t trial_seed,
                   core::SimHarness& harness) {
  using P = WorkloadSpec::Pattern;
  const WorkloadSpec& wl = spec.workload;
  const int hosts = harness.net().num_hosts();
  const std::uint64_t seed = mix64(trial_seed);
  const auto random_peer = [hosts](HostId src, Rng& rng) {
    return workload::random_destination(hosts, src, rng);
  };
  switch (wl.pattern) {
    case P::kClosedLoop: {
      auto app = std::make_shared<workload::ClosedLoopApp>(
          harness.starter(), harness.all_hosts(),
          workload::ClosedLoopApp::Config{
              .concurrent_per_host = wl.concurrent,
              .response_bytes = wl.response_bytes,
              .rounds_per_worker = wl.rounds,
              .seed = seed},
          random_peer, request_sizes(wl));
      return {[app] { app->start(0); },
              [app, &harness, &wl, hosts](TrialResult& r) {
                r.flows_started = static_cast<std::uint64_t>(hosts) *
                                  static_cast<std::uint64_t>(wl.concurrent) *
                                  static_cast<std::uint64_t>(wl.rounds);
                r.fct_us = app->completion_times_us();
                r.flows_finished = r.fct_us.size();
                r.metrics["drops"] =
                    static_cast<double>(harness.network().total_drops());
                r.metrics["timeouts"] =
                    static_cast<double>(harness.logger().total_timeouts());
              }};
    }
    case P::kOpenLoop: {
      auto app = std::make_shared<workload::OpenLoopApp>(
          harness.events(), harness.starter(), harness.all_hosts(),
          spec.topo.base_rate_bps, static_cast<double>(wl.flow_bytes),
          workload::OpenLoopApp::Config{
              .load = wl.load, .max_flows = wl.rounds, .seed = seed},
          random_peer, request_sizes(wl));
      return {[app] { app->start(0); },
              [app](TrialResult& r) {
                r.flows_started =
                    static_cast<std::uint64_t>(app->flows_started());
                r.fct_us = app->completion_times_us();
                r.flows_finished = r.fct_us.size();
              }};
    }
    case P::kHadoop: {
      if (wl.mappers + wl.reducers > hosts) {
        throw std::invalid_argument("exp: hadoop workers exceed the hosts");
      }
      auto job = std::make_shared<workload::HadoopJob>(
          harness.starter(), harness.all_hosts(),
          workload::HadoopJob::Config{.num_mappers = wl.mappers,
                                      .num_reducers = wl.reducers,
                                      .total_bytes = wl.job_bytes,
                                      .block_bytes = wl.flow_bytes,
                                      .concurrent_blocks = wl.concurrent,
                                      .seed = seed});
      return {[job] { job->start(0); },
              [job](TrialResult& r) {
                for (int stage = 0; stage < 3; ++stage) {
                  r.samples["stage" + std::to_string(stage + 1) + "_s"] =
                      job->stage_worker_times_s(stage);
                }
                // The job counts as one flow, finished only if it did.
                r.flows_started = 1;
                r.flows_finished = job->finished() ? 1 : 0;
              }};
    }
    case P::kIncast:
      // The receiver is the trial's first draw; the senders are the first
      // fan_in other hosts. The logger keeps FCTs in completion order.
      return {[&harness, &wl, hosts, seed] {
                const int dst = Rng(seed).next_int(0, hosts);
                for (int i = 0, senders = 0; i < hosts && senders < wl.fan_in;
                     ++i) {
                  if (i == dst) continue;
                  ++senders;
                  harness.starter()(HostId{i}, HostId{dst}, wl.flow_bytes,
                                    0, {});
                }
              },
              [&harness, senders = std::min(wl.fan_in, hosts - 1)](
                  TrialResult& r) {
                r.flows_started = static_cast<std::uint64_t>(senders);
                r.fct_us = harness.logger().fct_us();
                r.flows_finished = r.fct_us.size();
                r.metrics["timeouts"] =
                    static_cast<double>(harness.logger().total_timeouts());
              }};
    default:
      throw std::invalid_argument("exp: a host-pair pattern has no driver");
  }
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

void fold_controller(const control::Controller* controller, TrialResult& r) {
  if (controller == nullptr) return;
  r.metrics["ctl/ticks"] += static_cast<double>(controller->ticks());
  r.metrics["ctl/repins"] += static_cast<double>(controller->repins());
  r.metrics["ctl/plane_events"] +=
      static_cast<double>(controller->plane_events());
  r.metrics["ctl/churn_skips"] +=
      static_cast<double>(controller->churn_skips());
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
  const auto run = [&harness, &spec] {
    if (spec.deadline > 0) {
      harness.run_until(spec.deadline);
    } else {
      harness.run();
    }
  };
  Driver driver;  // the driver patterns: one workload from t = 0, run once
  if (!wl.host_pairs()) {
    driver = make_driver(spec, ctx.seed, harness);
    driver.start();
    run();
  } else {
    Rng rng(ctx.seed);
    for (int round = 0; round < wl.rounds; ++round) {
      if (ctx.cancel.cancelled()) break;
      const SimTime base =
          wl.round_gap > 0 ? round * wl.round_gap : harness.events().now();
      if (round > 0 && wl.round_gap == 0) {
        // The last run() drained every queue, which also stopped the
        // sampler and the control loop; re-arm both for this round.
        if (telemetry != nullptr) harness.resume_sampling();
        if (control_driver != nullptr) control_driver->resume(base);
      }
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
      // Back-to-back rounds: drain this round before drawing the next.
      if (wl.round_gap == 0) run();
    }
    if (wl.round_gap > 0) run();
  }
  // Finalize before any throw: a cancelled trial must still log its
  // partial flow records (and run the conservation sweep) — the records
  // stay reachable through the harness for direct callers even though the
  // runner discards this TrialResult.
  harness.finalize(harness.events().now());
  throw_if_cancelled(ctx.cancel);
  if (ctx.audit) audit.check();  // raises InvariantViolation on breaches
  if (driver.read) driver.read(r);
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

  if (std::string problem = fluid_telemetry_problem(wl, ctx.telemetry);
      !problem.empty()) {
    throw std::invalid_argument(std::move(problem));
  }
  auto telemetry = make_telemetry(ctx.telemetry);
  if (ctx.audit && telemetry != nullptr) {
    audit.set_counter(telemetry->registry.counter("audit_violations"));
  }
  // One simulator for the whole trial when rounds overlap (they share it
  // and its allocator state), else a fresh one per back-to-back round, the
  // packet engine's drained-queue equivalent.
  const int rounds_per_sim = wl.round_gap > 0 ? wl.rounds : 1;
  for (int round = 0; round < wl.rounds && !ctx.cancel.cancelled();) {
    fsim::FluidSimulator fluid(net, config, ctx.route_cache);
    fluid.set_telemetry(telemetry.get());
    if (cancel != nullptr) fluid.set_cancel(cancel);
    if (ctx.audit) fluid.set_audit(&audit);
    const ControlHooks hooks = attach_control(fluid);
    for (const int last = round + rounds_per_sim; round < last; ++round) {
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
  }
  fold_telemetry(telemetry, r);
  throw_if_cancelled(ctx.cancel);
  if (ctx.audit) audit.check();  // raises InvariantViolation on breaches
  return r;
}

std::string fluid_telemetry_problem(const WorkloadSpec& workload,
                                    const telemetry::Config& telemetry) {
  // Each back-to-back round restarts the simulated clock: no sample grid
  // or trace can span them.
  if (!telemetry.enabled() || workload.round_gap > 0 ||
      workload.rounds == 1) {
    return "";
  }
  return "the fluid engine records no telemetry (--sample-every, --trace) "
         "across back-to-back rounds; use rounds = 1 or a round_gap";
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
