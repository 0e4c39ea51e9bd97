#include "workloads.hpp"

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/harness.hpp"
#include "fsim/fluid.hpp"
#include "util/rng.hpp"
#include "workload/apps.hpp"
#include "workload/patterns.hpp"

namespace perfbench {

namespace {

using namespace pnet;

constexpr topo::NetworkType kAllTypes[] = {
    topo::NetworkType::kSerialLow,
    topo::NetworkType::kParallelHomogeneous,
    topo::NetworkType::kParallelHeterogeneous,
    topo::NetworkType::kSerialHigh,
};

/// Every workload runs on one fixed Jellyfish instance per network type, as
/// the paper's figures do; the workload seed draws only the traffic. With
/// the instance drawn from the seed too, the fluid serial cells' water-fill
/// time moved by a quarter between seeds.
constexpr std::uint64_t kTopologySeed = 1;

/// How many times fsim-paper runs each serial cell (see add_fig9_cells).
constexpr int kFsimSerialReplicas = 4;

topo::NetworkSpec jellyfish(topo::NetworkType type, int hosts, int planes) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kJellyfish;
  spec.type = type;
  spec.hosts = hosts;
  spec.parallelism = planes;
  spec.seed = kTopologySeed;
  return spec;
}

/// bench_fig9's best-of routing (§5.1.2): K-way KSP + MPTCP on P-Nets,
/// single-path on the shortest plane on serial networks.
core::PolicyConfig fig9_policy(topo::NetworkType type, int planes) {
  core::PolicyConfig policy;
  if (is_parallel(type)) {
    policy.policy = core::RoutingPolicy::kKspMultipath;
    policy.k = planes;
  } else {
    policy.policy = core::RoutingPolicy::kShortestPlane;
  }
  return policy;
}

SimTime jittered(SimTime base, SimTime jitter, Rng& rng) {
  if (jitter <= 0) return base;
  return base + static_cast<SimTime>(
                    rng.next_below(static_cast<std::uint64_t>(jitter)));
}

/// Charges the route compilation a call just did to a child span of the
/// innermost open one. The cell's route cache serves only this trial (one
/// trial per cell), so its compute-time counter moves only inside our calls.
class RouteClock {
 public:
  explicit RouteClock(const routing::RouteCache& cache)
      : cache_(cache), seen_ns_(cache.stats().compute_ns) {}

  void charge(TrialSpans& spans, std::int64_t call_start_ns) {
    const std::uint64_t now = cache_.stats().compute_ns;
    if (now != seen_ns_) {
      spans.add_child("routing.compile", call_start_ns,
                      static_cast<std::int64_t>(now - seen_ns_));
    }
    seen_ns_ = now;
  }

 private:
  const routing::RouteCache& cache_;
  std::uint64_t seen_ns_;
};

/// The harness's flow starter — core::PathSelector::make_starter — with the
/// path selection and the transport launch timed apart. Untraced, the
/// harness's own starter.
workload::FlowStarter traced_starter(core::SimHarness& harness,
                                     TrialSpans* spans, RouteClock* routes) {
  if (spans == nullptr) return harness.starter();
  return [&harness, spans, routes](HostId src, HostId dst,
                                   std::uint64_t bytes, SimTime start,
                                   sim::FlowFactory::FlowCallback done) {
    const Scope flow(spans, "core.flow_start");
    sim::FlowFactory& factory = harness.factory();
    const std::uint64_t flow_key =
        mix64((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src.v))
               << 32) ^
              static_cast<std::uint32_t>(dst.v) ^
              (static_cast<std::uint64_t>(factory.flows_created()) << 17));
    std::vector<routing::Path> paths;
    {
      const Scope select(spans, "core.select");
      paths = harness.selector().select(src, dst, bytes, flow_key);
      routes->charge(*spans, select.start_ns());
    }
    if (paths.empty()) throw std::runtime_error("no path between hosts");
    if (paths.size() == 1) {
      factory.tcp_flow(src, dst, paths.front(), bytes, start,
                       std::move(done));
    } else {
      factory.mptcp_flow(src, dst, paths, bytes, start, std::move(done),
                         harness.selector().config().coupling);
    }
  };
}

/// Builds the trial's SimHarness. Traced, the topology build it does
/// internally is timed by an identical stand-alone topo::build_network
/// call just before, and charged to a child span of the construction.
void build_harness(std::optional<core::SimHarness>& harness,
                   const core::SimHarness::Options& options,
                   TrialSpans* spans) {
  std::int64_t build_ns = 0;
  if (spans != nullptr) {
    const std::int64_t t0 = mono_ns();
    const topo::ParallelNetwork probe = topo::build_network(options.spec);
    build_ns = mono_ns() - t0;
    spans->add_child("probe.topo.build_network", t0, build_ns);
  }
  const Scope ctor(spans, "core.SimHarness");
  harness.emplace(options);
  if (spans != nullptr) {
    spans->add_child("topo.build_network", ctor.start_ns(), build_ns);
  }
}

/// Fills the packet-layer counters the traced run reports per trial.
void packet_counters(core::SimHarness& harness, exp::TrialResult& r) {
  r.runtime["sim.events"] = static_cast<double>(harness.dispatched());
  r.runtime["sim.flows"] =
      static_cast<double>(harness.factory().flows_created());
  r.runtime["sim.drops"] =
      static_cast<double>(harness.network().total_drops());
  r.runtime["sim.rtos"] =
      static_cast<double>(harness.logger().total_timeouts());
  r.runtime["sim.retransmits"] =
      static_cast<double>(harness.logger().total_retransmits());
}

/// exp::PacketEngine::run_trial for the specs this benchmark builds
/// (controller off, no deadline, no telemetry or audit), one span per call.
exp::TrialResult traced_packet_trial(const exp::TrialContext& ctx, int cell,
                                     SpanLog& log) {
  const exp::ExperimentSpec& spec = ctx.spec;
  const exp::WorkloadSpec& wl = spec.workload;
  if (spec.deadline > 0 || spec.controller.active() ||
      wl.pattern != exp::WorkloadSpec::Pattern::kPermutation) {
    throw std::invalid_argument("traced packet trial: unsupported spec");
  }
  TrialSpans spans(cell);
  exp::TrialResult r;
  {
    const Scope trial(&spans, "exp.trial");
    std::optional<core::SimHarness> harness;
    build_harness(harness,
                  {.spec = spec.topo,
                   .policy = spec.policy,
                   .sim_config = spec.sim,
                   .route_cache = ctx.route_cache,
                   .sim_threads = ctx.sim_threads},
                  &spans);
    RouteClock routes(harness->selector().route_cache());
    const workload::FlowStarter starter =
        traced_starter(*harness, &spans, &routes);
    Rng rng(ctx.seed);
    auto run = [&] {
      const Scope span(&spans, "sim.run");
      harness->run();
    };
    for (int round = 0; round < wl.rounds; ++round) {
      const SimTime base =
          wl.round_gap > 0 ? round * wl.round_gap : harness->events().now();
      for (const auto& [src, dst] :
           workload::permutation_pairs(harness->net().num_hosts(), rng)) {
        ++r.flows_started;
        starter(src, dst, wl.flow_bytes, jittered(base, wl.start_jitter, rng),
                [&r](const sim::FlowRecord& rec) {
                  r.fct_us.push_back(
                      units::to_microseconds(rec.end - rec.start));
                  ++r.flows_finished;
                });
      }
      if (wl.round_gap == 0) run();
    }
    if (wl.round_gap > 0) run();
    {
      const Scope span(&spans, "sim.finalize");
      harness->finalize(harness->events().now());
    }
    r.delivered_bytes =
        static_cast<double>(harness->factory().total_delivered_bytes());
    r.sim_seconds = units::to_seconds(harness->events().now());
    r.events = harness->dispatched();
    if (const std::uint64_t clamped =
            harness->network().total_config_clamped();
        clamped > 0) {
      r.metrics["config_clamped"] = static_cast<double>(clamped);
    }
    packet_counters(*harness, r);
    const Scope teardown(&spans, "core.~SimHarness");
    harness.reset();
  }
  log.add_trial(std::move(spans));
  return r;
}

/// exp::FluidEngine::run_trial's single-simulator shape (one round or
/// overlapping rounds; no deadline, controller, telemetry or audit).
exp::TrialResult traced_fsim_trial(const exp::TrialContext& ctx, int cell,
                                   SpanLog& log) {
  const exp::ExperimentSpec& spec = ctx.spec;
  const exp::WorkloadSpec& wl = spec.workload;
  if (spec.deadline > 0 || spec.controller.active() ||
      (wl.round_gap == 0 && wl.rounds != 1) ||
      wl.pattern != exp::WorkloadSpec::Pattern::kPermutation) {
    throw std::invalid_argument("traced fsim trial: unsupported spec");
  }
  TrialSpans spans(cell);
  exp::TrialResult r;
  {
    const Scope trial(&spans, "exp.trial");
    const fsim::FsimConfig config =
        exp::to_fsim_config(spec.policy, wl.flow_bytes);
    Scope build(&spans, "topo.build_network");
    const topo::ParallelNetwork net = topo::build_network(spec.topo);
    build.close();
    Rng rng(ctx.seed);
    RouteClock routes(*ctx.route_cache);
    Scope ctor(&spans, "fsim.FluidSimulator");
    fsim::FluidSimulator fluid(net, config, ctx.route_cache);
    ctor.close();
    for (int round = 0; round < wl.rounds; ++round) {
      const SimTime base = round * wl.round_gap;
      for (const auto& [src, dst] :
           workload::permutation_pairs(net.num_hosts(), rng)) {
        ++r.flows_started;
        const fsim::FlowSpec flow{src, dst, wl.flow_bytes,
                                  jittered(base, wl.start_jitter, rng)};
        const Scope add(&spans, "fsim.add_flow");
        fluid.add_flow(flow);
        routes.charge(spans, add.start_ns());
      }
    }
    {
      const Scope run(&spans, "fsim.run");
      fluid.run();
      routes.charge(spans, run.start_ns());
    }
    for (const double fct : fluid.fct_us()) r.fct_us.push_back(fct);
    r.flows_finished += fluid.results().size();
    r.delivered_bytes += fluid.delivered_bytes();
    r.sim_seconds += units::to_seconds(fluid.now());
    r.events += fluid.events();
    r.runtime["fsim.events"] = static_cast<double>(fluid.events());
    r.runtime["fsim.full_solves"] =
        static_cast<double>(fluid.allocator().full_solves());
    r.runtime["fsim.fast_paths"] =
        static_cast<double>(fluid.allocator().fast_paths());
  }
  log.add_trial(std::move(spans));
  return r;
}

struct RpcShape {
  int concurrent = 1;
  int rounds = 1;
  std::uint64_t request_bytes = 100'000;
  std::uint64_t response_bytes = 1500;
};

/// bench_fig11's closed-loop RPC trial, reading its topology, routing and
/// buffers from the spec and sharing the cell's route cache. Traced when
/// `log` is set.
exp::TrialResult rpc_trial(const exp::TrialContext& ctx, int cell,
                           const RpcShape& shape, SpanLog* log) {
  const exp::ExperimentSpec& spec = ctx.spec;
  std::optional<TrialSpans> recorder;
  if (log != nullptr) recorder.emplace(cell);
  TrialSpans* spans = recorder ? &*recorder : nullptr;
  exp::TrialResult r;
  {
    const Scope trial(spans, "exp.trial");
    std::optional<core::SimHarness> harness;
    build_harness(harness,
                  {.spec = spec.topo,
                   .policy = spec.policy,
                   .sim_config = spec.sim,
                   .route_cache = ctx.route_cache,
                   .sim_threads = ctx.sim_threads},
                  spans);
    std::optional<RouteClock> routes;
    if (spans != nullptr) routes.emplace(harness->selector().route_cache());
    workload::ClosedLoopApp::Config config;
    config.concurrent_per_host = shape.concurrent;
    config.response_bytes = shape.response_bytes;
    config.rounds_per_worker = shape.rounds;
    config.seed = mix64(ctx.seed);
    const int hosts = harness->net().num_hosts();
    workload::ClosedLoopApp app(
        traced_starter(*harness, spans, routes ? &*routes : nullptr),
        harness->all_hosts(), config,
        [hosts](HostId src, Rng& rng) {
          return workload::random_destination(hosts, src, rng);
        },
        [bytes = shape.request_bytes](Rng&) { return bytes; });
    app.start(0);
    {
      const Scope run(spans, "sim.run");
      harness->run();
    }
    {
      const Scope fin(spans, "sim.finalize");
      harness->finalize(harness->events().now());
    }
    r.fct_us = app.completion_times_us();
    r.flows_started = static_cast<std::uint64_t>(hosts) *
                      static_cast<std::uint64_t>(shape.concurrent) *
                      static_cast<std::uint64_t>(shape.rounds);
    r.flows_finished = r.fct_us.size();
    r.delivered_bytes =
        static_cast<double>(harness->factory().total_delivered_bytes());
    r.sim_seconds = units::to_seconds(harness->events().now());
    r.events = harness->dispatched();
    r.metrics["drops"] = static_cast<double>(harness->network().total_drops());
    r.metrics["timeouts"] =
        static_cast<double>(harness->logger().total_timeouts());
    if (spans != nullptr) packet_counters(*harness, r);
    const Scope teardown(spans, "core.~SimHarness");
    harness.reset();
  }
  if (log != nullptr) log->add_trial(std::move(*recorder));
  return r;
}

std::string size_label(std::uint64_t bytes) {
  return bytes >= 1'000'000 ? std::to_string(bytes / 1'000'000) + "MB"
                            : std::to_string(bytes / 1'000) + "kB";
}

struct Fig9Cell {
  std::uint64_t size;
  topo::NetworkType type;
  int replica;
};

/// packet-fig9 and fsim-paper: bench_fig9's grid, one cell per (flow size,
/// network type), one trial per cell; fsim-paper runs its serial cells
/// `serial_replicas` times over.
void add_fig9_cells(Plan& plan, exp::EngineKind engine, int hosts,
                    int planes, int rounds,
                    const std::vector<std::uint64_t>& sizes,
                    int serial_replicas, std::uint64_t seed, SpanLog* log) {
  std::vector<Fig9Cell> grid;
  if (engine == exp::EngineKind::kFsim) {
    // Fluid cells cost the same at every flow size, and a serial cell is
    // ~30x cheaper than a KSP-routed parallel one. Run beside the parallel
    // cells, a serial cell took 100 to 200 ms depending on how many of
    // them still ran; queued first, the fresh process's page faults made
    // up a noisy share of its time. So the serial cells run in a second
    // Runner::run call, after the parallel ones, and several times over,
    // each replica with its own traffic, so that serial_s sums enough
    // work to be timed.
    for (const std::uint64_t size : sizes) {
      for (const topo::NetworkType type : kAllTypes) {
        if (is_parallel(type)) grid.push_back({size, type, 0});
      }
    }
    plan.phase_end.push_back(plan.cells.size() + grid.size());
    for (int replica = 0; replica < serial_replicas; ++replica) {
      for (const std::uint64_t size : sizes) {
        for (const topo::NetworkType type : kAllTypes) {
          if (!is_parallel(type)) grid.push_back({size, type, replica});
        }
      }
    }
  } else {
    for (const std::uint64_t size : sizes) {
      for (const topo::NetworkType type : kAllTypes) {
        grid.push_back({size, type, 0});
      }
    }
  }
  for (const Fig9Cell& c : grid) {
    exp::ExperimentSpec spec;
    spec.name = size_label(c.size) + "/" + topo::to_string(c.type);
    if (c.replica > 0) spec.name += "/r" + std::to_string(c.replica);
    spec.topo = jellyfish(c.type, hosts, planes);
    spec.policy = fig9_policy(c.type, planes);
    spec.engine = engine;
    // bench_fig9's bulk-transfer buffers (400 MTUs per port).
    spec.sim.queue_buffer_bytes = 400 * 1500;
    spec.workload.flow_bytes = c.size;
    spec.workload.rounds = rounds;
    spec.seed = seed + static_cast<std::uint64_t>(c.replica) *
                           0x9E3779B97F4A7C15ULL;
    spec.trials = 1;
    exp::TrialFn fn;
    if (log != nullptr) {
      const int cell = static_cast<int>(plan.cells.size());
      fn = engine == exp::EngineKind::kFsim
               ? exp::TrialFn([cell, log](const exp::TrialContext& ctx) {
                   return traced_fsim_trial(ctx, cell, *log);
                 })
               : exp::TrialFn([cell, log](const exp::TrialContext& ctx) {
                   return traced_packet_trial(ctx, cell, *log);
                 });
    }
    plan.per_host.push_back(static_cast<std::uint64_t>(rounds));
    plan.unit_bytes.push_back(c.size);
    plan.cells.push_back({std::move(spec), std::move(fn)});
  }
}

/// packet-rpc: bench_fig11's grid at two concurrencies.
void add_rpc_cells(Plan& plan, int hosts, int planes, int rounds,
                   const std::vector<int>& concurrency, std::uint64_t seed,
                   SpanLog* log) {
  for (const int concurrent : concurrency) {
    for (const topo::NetworkType type : kAllTypes) {
      exp::ExperimentSpec spec;
      spec.name = "conc=" + std::to_string(concurrent) + "/" +
                  topo::to_string(type);
      spec.engine = exp::EngineKind::kCustom;
      spec.topo = jellyfish(type, hosts, planes);
      spec.policy.policy = core::RoutingPolicy::kShortestPlane;
      spec.seed = seed;
      spec.trials = 1;
      const RpcShape shape{.concurrent = concurrent, .rounds = rounds};
      const int cell = static_cast<int>(plan.cells.size());
      plan.per_host.push_back(static_cast<std::uint64_t>(concurrent) *
                              static_cast<std::uint64_t>(rounds));
      plan.unit_bytes.push_back(shape.request_bytes + shape.response_bytes);
      plan.cells.push_back(
          {std::move(spec), [cell, shape, log](const exp::TrialContext& ctx) {
             return rpc_trial(ctx, cell, shape, log);
           }});
    }
  }
}

}  // namespace

bool is_parallel(pnet::topo::NetworkType type) {
  return type == pnet::topo::NetworkType::kParallelHomogeneous ||
         type == pnet::topo::NetworkType::kParallelHeterogeneous;
}

std::optional<Workload> workload_from_string(std::string_view name) {
  for (const Workload w :
       {Workload::kPacketFig9, Workload::kFsimPaper, Workload::kPacketRpc}) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kPacketFig9: return "packet-fig9";
    case Workload::kFsimPaper: return "fsim-paper";
    case Workload::kPacketRpc: return "packet-rpc";
  }
  return "?";
}

Plan make_plan(Workload workload, std::uint64_t seed, Scale scale,
               SpanLog* log) {
  const bool tiny = scale == Scale::kTiny;
  Plan plan;
  // Packet cells with larger flows or more outstanding RPCs are queued
  // first: the runner's workers pull jobs in submission order, so a long
  // cell queued last would run alone at the end and its start time would
  // decide the wall clock.
  switch (workload) {
    case Workload::kPacketFig9:
      add_fig9_cells(plan, exp::EngineKind::kPacket, tiny ? 16 : 96,
                     tiny ? 2 : 4, tiny ? 1 : 2,
                     tiny ? std::vector<std::uint64_t>{1'000'000, 100'000}
                          : std::vector<std::uint64_t>{10'000'000, 1'000'000},
                     1, seed, log);
      break;
    case Workload::kFsimPaper:
      add_fig9_cells(plan, exp::EngineKind::kFsim, tiny ? 32 : 686,
                     tiny ? 2 : 4, 1, {10'000'000, 1'000'000},
                     tiny ? 2 : kFsimSerialReplicas, seed, log);
      break;
    case Workload::kPacketRpc:
      add_rpc_cells(plan, tiny ? 16 : 64, tiny ? 2 : 4, tiny ? 2 : 30,
                    {10, 2}, seed, log);
      break;
  }
  plan.phase_end.push_back(plan.cells.size());
  return plan;
}

}  // namespace perfbench
