// Ablation: graceful degradation under a whole-plane outage (§3.4: "end
// hosts can quickly detect individual dataplane failures via link status
// and avoid using the broken dataplane(s)").
//
// A 4-plane P-Net runs a closed-loop RPC workload; one plane's links all
// die. With failure-aware selection the workload keeps running on 3/4
// capacity; without it, a quarter of new flows black-hole until their
// senders give up (we count unfinished flows and timeouts).
//
// Two custom-engine cells (aware / unaware) run through exp::Runner; the
// black-holed RPCs show up as the unaware cell's unfinished flows in the
// JSON report (and fail the run under --require-complete, by design).
//
// Usage: bench_ablation_failover [--hosts=64] [--rounds=20] [--seed=1]
// Run with --help for flag semantics.
#include "common.hpp"
#include "workload/apps.hpp"

using namespace pnet;

namespace {

exp::TrialResult run(bool aware, int hosts, int rounds,
                     const exp::TrialContext& ctx) {
  const auto spec =
      bench::make_spec(topo::TopoKind::kJellyfish,
                       topo::NetworkType::kParallelHomogeneous, hosts, 4,
                       ctx.seed);
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kRoundRobin;
  core::SimHarness harness({.spec = spec, .policy = policy});

  // The outage happens before traffic starts (the steady-state view).
  harness.network().set_plane_failed(2, true);
  if (aware) harness.selector().set_plane_failed(2, true);

  workload::ClosedLoopApp::Config config;
  config.concurrent_per_host = 2;
  config.rounds_per_worker = rounds;
  config.seed = mix64(ctx.seed);
  workload::ClosedLoopApp app(
      harness.starter(), harness.all_hosts(), config,
      [&](HostId src, Rng& rng) {
        return workload::random_destination(harness.net().num_hosts(), src,
                                            rng);
      },
      [](Rng&) { return std::uint64_t{100'000}; });
  app.start(0);
  harness.run_until(5 * units::kSecond);

  exp::TrialResult r;
  r.fct_us = app.completion_times_us();
  r.flows_started = static_cast<std::uint64_t>(harness.net().num_hosts()) *
                    2ULL * static_cast<std::uint64_t>(rounds);
  r.flows_finished = static_cast<std::uint64_t>(app.requests_completed());
  r.metrics["timeouts"] =
      static_cast<double>(harness.logger().total_timeouts());
  r.delivered_bytes =
      static_cast<double>(harness.factory().total_delivered_bytes());
  r.sim_seconds = units::to_seconds(harness.events().now());
  r.events = harness.dispatched();
  return r;
}

}  // namespace

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
      "                  destination draws (default 1)\n");
  const int hosts = flags.get_int("hosts", 64);
  const int rounds = flags.get_int("rounds", 20);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_i64("seed", 1));

  bench::Experiment experiment(flags, "ablation_failover");
  for (bool aware : {true, false}) {
    exp::ExperimentSpec spec;
    spec.name = aware ? "failure-aware" : "failure-unaware";
    spec.engine = exp::EngineKind::kCustom;
    spec.seed = seed;
    spec.trials = experiment.trials(1);
    experiment.add(std::move(spec), [=](const exp::TrialContext& ctx) {
      return run(aware, hosts, rounds, ctx);
    });
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
