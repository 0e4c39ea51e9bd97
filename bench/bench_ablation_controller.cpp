// Controller ablation: host-local reaction vs the centralized adaptive
// control plane (DESIGN.md §5j), on both engines, under a plane flap and
// under a mid-run traffic shift.
//
// Eight specs — {packet, fsim} x {host-local, centralized} x {flap, shift}
// — on the pinned 8-switch 4-plane homogeneous Jellyfish P-Net:
//
//   flap   A permutation of long bulk flows; plane 0 dies at 20 ms and
//          recovers 15 ms later (ExperimentSpec::faults). Under host-local
//          control the packet engine reacts through the HealthMonitor's
//          transport repath (the paper's mechanism) while the fluid engine
//          — which has no transport — leaves the dead plane's flows frozen
//          at rate 0 until recovery. Centralized adds the
//          control::Controller: it confirms the outage off the
//          LinkStateBus after detect_delay, masks the plane, evacuates live
//          flows, and rebalances with inverse-load weights.
//   shift  No faults: a first wave of finite ECMP flows is followed by a
//          second wave 5 ms later (two permutation rounds, round_gap 5 ms).
//          Host-local placement stays uniform hash; the centralized
//          controller biases the second wave toward the planes the first
//          wave left cool and repins the hottest plane's laggards. On the
//          fluid engine that shrinks the plane-load imbalance; on the
//          packet engine it leaves a higher imbalance than host-local in
//          most seeds, an open finding (ROADMAP item 10).
//
// Every cell records the controller's decision counters (ctl/* metrics)
// and the per-plane byte imbalance (plane_imbalance), so the committed
// JSON report is the ablation table; its telemetry block carries the
// sampler series (2 ms grid by default). Reports are byte-identical across
// --threads and --sim-threads values: controller ticks are simulation
// events (control queue / fluid event loop), never wall-clock ones.
//
// Usage: bench_ablation_controller [--hosts=16] [--seed=1]
//                                  [--controller-cadence=1]
//                                  [--controller-detect-delay=1]
// Run with --help for the shared flag set.
#include "common.hpp"

using namespace pnet;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header(
      "Controller ablation: host-local vs centralized, flap + traffic shift",
      flags,
      "bench_ablation_controller: the adaptive control plane's contribution\n"
      "\n"
      "  --hosts=N         hosts in every network (default 16, all the\n"
      "                    pinned 8-switch Jellyfish holds)\n"
      "  --seed=N          seed for the Jellyfish wiring and the workload\n"
      "                    permutation draws (default 1)\n"
      "\n"
      "The shared --controller-cadence / --controller-detect-delay flags\n"
      "tune the loop; --controller itself exits 2 (every cell pins its own\n"
      "mode — that is the ablation).\n");
  bench::reject_controller_flag(flags);
  const int hosts = flags.get_int("hosts", 16);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_i64("seed", 1));
  // The cells pin their own modes; the shared flags only set the loop's
  // timing, so one binary sweeps cadence/delay without a rebuild.
  const control::ControllerConfig base = bench::parse_controller(flags);
  const SimTime flap_at = 20 * units::kMillisecond;
  const SimTime flap_down = 15 * units::kMillisecond;
  const SimTime shift_at = 5 * units::kMillisecond;

  bench::Experiment experiment(flags, "ablation_controller",
                               /*sample_every_ms=*/2.0);
  for (const bool flap : {true, false}) {
    for (const exp::EngineKind engine :
         {exp::EngineKind::kPacket, exp::EngineKind::kFsim}) {
      for (const control::ControllerMode mode :
           {control::ControllerMode::kHostLocal,
            control::ControllerMode::kCentralized}) {
        exp::ExperimentSpec spec;
        spec.name = std::string(flap ? "flap" : "shift") + "/" +
                    exp::to_string(engine) + "/" + control::to_string(mode);
        spec.engine = engine;
        spec.topo = bench::pinned_jellyfish(
            topo::NetworkType::kParallelHomogeneous, hosts, seed);
        spec.controller = base;
        spec.controller.mode = mode;
        spec.seed = seed;
        spec.trials = experiment.trials(1);
        spec.workload.start_jitter = 0;
        if (flap) {
          // Long bulk flows that outlive the deadline: the cell measures
          // fabric goodput through the outage, not flow arrivals.
          spec.policy.policy = engine == exp::EngineKind::kPacket
                                   ? core::RoutingPolicy::kRoundRobin
                                   : core::RoutingPolicy::kEcmp;
          spec.workload.flow_bytes = 100 * units::kGB;
          spec.deadline = 60 * units::kMillisecond;
          spec.faults.outage = exp::FaultSpec::Outage{
              .plane = 0, .at = flap_at, .down_for = flap_down};
        } else {
          // Two finite waves; the second launches after the controller has
          // seen the first wave's plane loads.
          spec.policy.policy = core::RoutingPolicy::kEcmp;
          spec.workload.flow_bytes = 2'000'000;
          spec.workload.rounds = 2;
          spec.workload.round_gap = shift_at;
        }
        experiment.add(std::move(spec));
      }
    }
  }
  const auto results = experiment.run();

  std::printf("plane 0 down %.0f-%.0f ms (flap cells); wave 2 at %.0f ms "
              "(shift cells); cadence %.1f ms, detect delay %.1f ms\n\n",
              units::to_milliseconds(flap_at),
              units::to_milliseconds(flap_at + flap_down),
              units::to_milliseconds(shift_at),
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
      "placement toward cool planes and repins laggards: on the fluid\n"
      "engine that shrinks the per-plane byte imbalance at equal delivered\n"
      "bytes; on the packet engine it does not (an open finding).\n");
  return experiment.finish();
}
