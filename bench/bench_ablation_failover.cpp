// Ablation: graceful degradation under a whole-plane outage (§3.4: "end
// hosts can quickly detect individual dataplane failures via link status
// and avoid using the broken dataplane(s)").
//
// A 4-plane P-Net runs a closed-loop RPC workload; plane 2 dies at t = 0
// and stays down. Failure-aware hosts (host-local control) learn of it
// after --controller-detect-delay and repath onto the surviving planes,
// so the workload keeps running on 3/4 capacity; failure-unaware hosts
// (control off) keep hashing a quarter of new flows into the dead plane,
// where they black-hole until the 5 s deadline (we count unfinished flows
// and timeouts).
//
// Two closed-loop packet specs with a plane outage (ExperimentSpec::faults);
// the black-holed RPCs show up as the unaware cell's unfinished flows in
// the JSON report (and fail the run under --require-complete, by design).
//
// Usage: bench_ablation_failover [--hosts=64] [--rounds=20] [--seed=1]
// Run with --help for flag semantics.
#include "common.hpp"

using namespace pnet;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header(
      "Ablation: plane failure with/without failure-aware path selection",
      flags,
      "bench_ablation_failover: plane outage with/without failure-aware "
      "selection\n"
      "\n"
      "  --hosts=N       hosts in the 4-plane P-Net (default 64)\n"
      "  --rounds=N      closed-loop RPC rounds per worker, 2 workers per\n"
      "                  host (default 20)\n"
      "  --seed=N        seed for the Jellyfish wiring and the RPC\n"
      "                  destination draws (default 1)\n"
      "\n"
      "--controller-detect-delay sets when aware hosts learn of the outage;\n"
      "--controller itself exits 2 (each cell pins its own mode).\n");
  bench::reject_controller_flag(flags);
  const int hosts = flags.get_int("hosts", 64);
  const int rounds = flags.get_int("rounds", 20);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_i64("seed", 1));
  control::ControllerConfig host_local = bench::parse_controller(flags);
  host_local.mode = control::ControllerMode::kHostLocal;

  bench::Experiment experiment(flags, "ablation_failover");
  for (bool aware : {true, false}) {
    exp::ExperimentSpec spec = bench::driver_spec(
        aware ? "failure-aware" : "failure-unaware",
        exp::WorkloadSpec::Pattern::kClosedLoop, topo::TopoKind::kJellyfish,
        topo::NetworkType::kParallelHomogeneous, hosts, 4, seed);
    spec.policy.policy = core::RoutingPolicy::kRoundRobin;
    spec.workload.flow_bytes = 100'000;
    spec.workload.concurrent = 2;
    spec.workload.rounds = rounds;
    spec.trials = experiment.trials(1);
    spec.deadline = 5 * units::kSecond;
    spec.faults.outage = exp::FaultSpec::Outage{.plane = 2};
    if (aware) spec.controller = host_local;
    experiment.add(std::move(spec));
  }
  const auto results = experiment.run();

  TextTable table("100 kB closed-loop RPCs with plane 2 of 4 dead",
                  {"selection", "completed", "of", "TCP timeouts",
                   "p99 (us)"});
  for (const auto& cell : results) {
    const bool aware = cell.spec.name == "failure-aware";
    table.add_row(aware ? "failure-aware (paper §3.4)" : "failure-unaware",
                  {static_cast<double>(cell.flows_finished()),
                   static_cast<double>(cell.flows_started()),
                   cell.metric("timeouts").mean, cell.fct().p99},
                  0);
  }
  table.print();
  std::printf("Failure-aware hosts lose capacity, not liveness: every RPC\n"
              "completes on the surviving planes. Unaware hosts keep\n"
              "hashing flows into the dead plane and stall their workers.\n");
  return experiment.finish();
}
