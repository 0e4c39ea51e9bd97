// Controller ablation: host-local reaction vs the centralized adaptive
// control plane (DESIGN.md §5j), on both engines, under a plane flap and
// under a mid-run traffic shift.
//
// Eight custom-engine cells — {packet, fsim} x {host-local, centralized} x
// {flap, shift}:
//
//   flap   A permutation of long bulk flows runs on a 4-plane homogeneous
//          Jellyfish P-Net; mid-run plane 0 dies and later recovers. Under
//          host-local control the packet engine reacts through the
//          HealthMonitor's transport repath (the paper's mechanism) while
//          the fluid engine — which has no transport — leaves the dead
//          plane's flows frozen at rate 0 until recovery. Centralized adds
//          the control::Controller: it confirms the outage off the
//          LinkStateBus after detect_delay, masks the plane, evacuates
//          live flows, and rebalances with inverse-load weights.
//   shift  No faults: a first wave of finite ECMP flows is followed by a
//          second wave mid-run. Host-local placement stays uniform hash;
//          the centralized controller biases the second wave toward the
//          planes the first wave left cool and repins the hottest plane's
//          laggards, shrinking the plane-load imbalance and the makespan.
//
// Every cell records the controller's decision counters (ctl/* metrics)
// and the per-plane byte imbalance, so the committed JSON report is the
// ablation table. Reports are byte-identical across --threads and
// --sim-threads values: controller ticks are simulation events (control
// queue / fluid event loop), never wall-clock ones.
//
// Usage: bench_ablation_controller [--hosts=16] [--seed=1]
//                                  [--controller-cadence=1]
//                                  [--controller-detect-delay=1]
// Run with --help for the shared flag set.
#include <memory>

#include "common.hpp"
#include "control/controller.hpp"
#include "control/dataplanes.hpp"
#include "control/link_state_bus.hpp"
#include "core/health_monitor.hpp"
#include "sim/faults.hpp"

using namespace pnet;

namespace {

struct Scenario {
  int hosts = 16;
  std::uint64_t seed = 1;

  // Flap timeline: plane 0 down for [flap_at, flap_at + flap_down).
  SimTime horizon = 60 * units::kMillisecond;
  SimTime flap_at = 20 * units::kMillisecond;
  SimTime flap_down = 15 * units::kMillisecond;
  SimTime bucket = 2 * units::kMillisecond;

  // Shift timeline: wave 2 launches mid-run, after the controller has
  // sampled wave 1's plane loads for a few cadences.
  std::uint64_t shift_bytes = 2'000'000;
  SimTime shift_at = 5 * units::kMillisecond;
};

topo::NetworkSpec flap_topo(const Scenario& sc, std::uint64_t seed) {
  auto spec = bench::make_spec(topo::TopoKind::kJellyfish,
                               topo::NetworkType::kParallelHomogeneous,
                               sc.hosts, 4, seed);
  // Pin a small non-complete Jellyfish (see bench_fault_recovery): the
  // default shape derivation would clamp small runs to the complete graph.
  spec.jf_switches = 8;
  spec.jf_degree = 5;
  spec.jf_hosts_per_switch = 2;
  return spec;
}

/// max/min per-plane delivered bytes — 1.0 is a perfectly even fabric.
double imbalance(const std::vector<double>& plane_bytes) {
  double lo = 0.0;
  double hi = 0.0;
  for (std::size_t p = 0; p < plane_bytes.size(); ++p) {
    const double b = plane_bytes[p];
    if (p == 0 || b < lo) lo = b;
    if (p == 0 || b > hi) hi = b;
  }
  return lo > 0.0 ? hi / lo : 0.0;
}

// ------------------------------------------------------------ packet cells

exp::TrialResult packet_trial(const Scenario& sc,
                              const control::ControllerConfig& cc, bool flap,
                              const exp::TrialContext& ctx) {
  core::PolicyConfig policy;
  policy.policy = flap ? core::RoutingPolicy::kRoundRobin
                       : core::RoutingPolicy::kEcmp;

  telemetry::Config tcfg = ctx.telemetry;
  if (tcfg.sample_every <= 0) tcfg.sample_every = sc.bucket;
  const auto tel = std::make_shared<telemetry::Telemetry>(tcfg);

  // Private route cache: the flap cells mutate link fault state, which a
  // cell-shared cache must never see (determinism contract).
  core::SimHarness h({.spec = flap_topo(sc, ctx.seed),
                      .policy = policy,
                      .telemetry = tel.get(),
                      .sim_threads = ctx.sim_threads});
  h.selector().enable_repath(h.factory());

  // Host-local reaction (the paper's mechanism) runs in BOTH modes; the
  // centralized controller is strictly additive, so the ablation isolates
  // its contribution.
  core::HealthMonitor monitor(h.events(), {.detect_delay = cc.detect_delay});
  monitor.add_selector(h.selector());
  monitor.set_factory(h.factory());
  sim::FaultInjector injector(h.events(), h.network());
  control::LinkStateBus bus;
  bus.subscribe_health_monitor(monitor);
  bus.attach(injector);

  std::unique_ptr<control::PacketDataplane> dataplane;
  std::unique_ptr<control::Controller> controller;
  std::unique_ptr<control::ControlDriver> driver;
  if (cc.centralized()) {
    dataplane = std::make_unique<control::PacketDataplane>(h);
    controller = std::make_unique<control::Controller>(cc, *dataplane);
    controller->observe(bus);
    driver = std::make_unique<control::ControlDriver>(h, *controller,
                                                      cc.cadence);
    driver->start(h.events().now());
  }

  exp::TrialResult r;
  Rng rng(mix64(ctx.seed + 7));
  if (flap) {
    sim::FaultPlan plan;
    plan.flap_plane(sc.flap_at, sc.flap_down, 0);
    injector.arm(plan);
    // Long bulk flows that outlive the horizon: the cell measures fabric
    // goodput through the outage, not flow arrivals.
    for (const auto& [src, dst] :
         workload::permutation_pairs(h.net().num_hosts(), rng)) {
      ++r.flows_started;
      h.starter()(src, dst, 100 * units::kGB, 0, {});
    }
    h.run_until(sc.horizon);
  } else {
    // Two finite waves; the second launches after the controller has seen
    // the first wave's plane loads.
    for (int wave = 0; wave < 2; ++wave) {
      const SimTime at = wave == 0 ? 0 : sc.shift_at;
      for (const auto& [src, dst] :
           workload::permutation_pairs(h.net().num_hosts(), rng)) {
        ++r.flows_started;
        h.starter()(src, dst, sc.shift_bytes, at,
                    [&r](const sim::FlowRecord& rec) {
                      r.fct_us.push_back(
                          units::to_microseconds(rec.end - rec.start));
                      ++r.flows_finished;
                    });
      }
    }
    h.run();
  }
  h.finalize(h.events().now());

  std::vector<double> plane_bytes;
  for (int p = 0; p < h.net().num_planes(); ++p) {
    plane_bytes.push_back(
        static_cast<double>(h.network().plane_forwarded_bytes(p)));
  }
  r.metrics["plane_imbalance"] = imbalance(plane_bytes);
  r.delivered_bytes =
      static_cast<double>(h.factory().total_delivered_bytes());
  r.sim_seconds = units::to_seconds(h.events().now());
  r.events = h.dispatched();
  exp::fold_controller(controller.get(), r);
  exp::fold_telemetry(tel, r);
  return r;
}

// ------------------------------------------------------------- fluid cells

exp::TrialResult fluid_trial(const Scenario& sc,
                             const control::ControllerConfig& cc, bool flap,
                             const exp::TrialContext& ctx) {
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kEcmp;
  const auto net = topo::build_network(flap_topo(sc, ctx.seed));
  // Private cache for the same reason as the packet cells: fabric faults
  // invalidate entries, which must stay invisible to sibling trials.
  fsim::FluidSimulator fluid(net, exp::to_fsim_config(policy),
                             std::make_shared<routing::RouteCache>());
  fluid.enable_plane_accounting();

  control::LinkStateBus bus;
  bus.attach(fluid);

  std::unique_ptr<control::FluidDataplane> dataplane;
  std::unique_ptr<control::Controller> controller;
  if (cc.centralized()) {
    dataplane = std::make_unique<control::FluidDataplane>(fluid);
    controller = std::make_unique<control::Controller>(cc, *dataplane);
    controller->observe(bus);
    controller->start(fluid.now());
    control::Controller* ctl = controller.get();
    fluid.set_control(cc.cadence, [ctl](SimTime t) { ctl->tick(t); });
  }
  // Host-local mode has no fluid-engine analog (there is no transport to
  // repath): the dead plane's flows freeze at rate 0 until recovery. That
  // IS the ablation baseline the centralized evacuation is measured
  // against.

  exp::TrialResult r;
  Rng rng(mix64(ctx.seed + 7));
  if (flap) {
    fluid.fail_plane(sc.flap_at, sc.flap_at + sc.flap_down, 0);
    for (const auto& [src, dst] :
         workload::permutation_pairs(net.num_hosts(), rng)) {
      ++r.flows_started;
      fluid.add_flow({src, dst, 100 * units::kGB, 0});
    }
    fluid.run_until(sc.horizon);
  } else {
    for (int wave = 0; wave < 2; ++wave) {
      const SimTime at = wave == 0 ? 0 : sc.shift_at;
      for (const auto& [src, dst] :
           workload::permutation_pairs(net.num_hosts(), rng)) {
        ++r.flows_started;
        fluid.add_flow({src, dst, sc.shift_bytes, at});
      }
    }
    fluid.run();
  }

  for (double fct : fluid.fct_us()) r.fct_us.push_back(fct);
  r.flows_finished = fluid.results().size();
  std::vector<double> plane_bytes;
  for (int p = 0; p < net.num_planes(); ++p) {
    plane_bytes.push_back(fluid.plane_delivered_bytes(p));
  }
  r.metrics["plane_imbalance"] = imbalance(plane_bytes);
  r.delivered_bytes = fluid.delivered_bytes();
  r.sim_seconds = units::to_seconds(fluid.now());
  r.events = fluid.events();
  exp::fold_controller(controller.get(), r);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header(
      "Controller ablation: host-local vs centralized, flap + traffic shift",
      flags,
      "bench_ablation_controller: the adaptive control plane's contribution\n"
      "\n"
      "  --hosts=N         hosts in every network (default 16)\n"
      "  --seed=N          seed for the Jellyfish wiring and the workload\n"
      "                    permutation draws (default 1)\n"
      "\n"
      "The shared --controller-cadence / --controller-detect-delay flags\n"
      "tune the loop; --controller itself is ignored here (every cell pins\n"
      "its own mode — that is the ablation).\n");

  Scenario sc;
  sc.hosts = flags.get_int("hosts", 16);
  sc.seed = static_cast<std::uint64_t>(flags.get_i64("seed", 1));

  // The cells pin their own modes; the shared flags only set the loop's
  // timing, so one binary sweeps cadence/delay without a rebuild.
  control::ControllerConfig base = bench::parse_controller(flags);

  struct CellDef {
    const char* scenario;
    const char* engine;
    control::ControllerMode mode;
    bool flap;
    bool packet;
  };
  const CellDef defs[] = {
      {"flap", "packet", control::ControllerMode::kHostLocal, true, true},
      {"flap", "packet", control::ControllerMode::kCentralized, true, true},
      {"flap", "fsim", control::ControllerMode::kHostLocal, true, false},
      {"flap", "fsim", control::ControllerMode::kCentralized, true, false},
      {"shift", "packet", control::ControllerMode::kHostLocal, false, true},
      {"shift", "packet", control::ControllerMode::kCentralized, false, true},
      {"shift", "fsim", control::ControllerMode::kHostLocal, false, false},
      {"shift", "fsim", control::ControllerMode::kCentralized, false, false},
  };

  bench::Experiment experiment(flags, "ablation_controller");
  for (const CellDef& def : defs) {
    control::ControllerConfig cc = base;
    cc.mode = def.mode;
    exp::ExperimentSpec spec;
    spec.name = std::string(def.scenario) + "/" + def.engine + "/" +
                control::to_string(def.mode);
    spec.engine = exp::EngineKind::kCustom;
    spec.seed = sc.seed;
    spec.controller = cc;  // recorded in the report's spec block
    const bool flap = def.flap;
    const bool packet = def.packet;
    experiment.add(std::move(spec), [=](const exp::TrialContext& ctx) {
      return packet ? packet_trial(sc, cc, flap, ctx)
                    : fluid_trial(sc, cc, flap, ctx);
    });
  }
  const auto results = experiment.run();

  std::printf("plane 0 down %.0f-%.0f ms (flap cells); wave 2 at %.0f ms "
              "(shift cells); cadence %.1f ms, detect delay %.1f ms\n\n",
              units::to_milliseconds(sc.flap_at),
              units::to_milliseconds(sc.flap_at + sc.flap_down),
              units::to_milliseconds(sc.shift_at),
              units::to_milliseconds(base.cadence),
              units::to_milliseconds(base.detect_delay));

  TextTable table("Controller ablation",
                  {"cell", "delivered GB", "imbalance", "finished",
                   "ctl ticks", "ctl repins", "plane events"});
  for (const auto& cell : results) {
    table.add_row(cell.spec.name,
                  {cell.delivered_bytes() / 1e9,
                   cell.metric("plane_imbalance").mean,
                   static_cast<double>(cell.flows_finished()),
                   cell.metric("ctl/ticks").mean,
                   cell.metric("ctl/repins").mean,
                   cell.metric("ctl/plane_events").mean},
                  2);
  }
  table.print();

  std::printf(
      "\nUnder the flap the centralized controller evacuates the dead\n"
      "plane's flows after its detection delay — on the fluid engine (no\n"
      "transport repath) that is the difference between frozen flows and\n"
      "continued delivery. Under the traffic shift it biases second-wave\n"
      "placement toward cool planes and repins laggards, shrinking the\n"
      "per-plane byte imbalance at equal delivered bytes.\n");
  return experiment.finish();
}
