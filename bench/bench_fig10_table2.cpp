// Figure 10 + Table 2: 1500 B (MTU-sized) RPC request completion time on
// Jellyfish networks, single-path routing, N = 4 dataplanes.
//
// Each host ping-pongs MTU-sized RPCs with random servers. The completion
// time distribution steps with the hop-count distribution; parallel
// heterogeneous networks answer from whichever plane has the shortest path
// (the §3.4 "low-latency" interface), cutting the median to ~80% of serial
// in the paper. Serial high-bw only shaves serialization delay (90 ns/hop
// at 400G), which is small next to the ~1 us/hop propagation.
//
// One custom-engine cell per network type; the RPC completion times are
// the cell's FCT sample set in the JSON report.
//
// Usage: bench_fig10_table2 [--hosts=96] [--planes=4] [--rounds=100]
//        [--seed=1]  (--scale=paper: 686 hosts, 1000 rounds)
#include "common.hpp"
#include "workload/apps.hpp"

using namespace pnet;

namespace {

exp::TrialResult run_rpcs(topo::NetworkType type, int hosts, int planes,
                          std::uint64_t rpc_bytes, int rounds,
                          const exp::TrialContext& ctx) {
  const auto spec = bench::make_spec(topo::TopoKind::kJellyfish, type,
                                     hosts, planes, ctx.seed);
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kShortestPlane;  // single path
  core::SimHarness harness({.spec = spec, .policy = policy});

  workload::ClosedLoopApp::Config config;
  config.concurrent_per_host = 1;
  config.response_bytes = rpc_bytes;
  config.rounds_per_worker = rounds;
  config.seed = mix64(ctx.seed);
  workload::ClosedLoopApp app(
      harness.starter(), harness.all_hosts(), config,
      [&](HostId src, Rng& rng) {
        return workload::random_destination(harness.net().num_hosts(), src,
                                            rng);
      },
      [rpc_bytes](Rng&) { return rpc_bytes; });
  app.start(0);
  harness.run();

  exp::TrialResult r;
  r.fct_us = app.completion_times_us();
  r.flows_started = static_cast<std::uint64_t>(harness.net().num_hosts()) *
                    static_cast<std::uint64_t>(rounds);
  r.flows_finished = r.fct_us.size();
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
      "Figure 10 + Table 2: 1500B RPC completion time, single-path routing",
      flags,
      "bench_fig10_table2: 1500B RPC completion times\n"
      "\n"
      "  --hosts=N    hosts (default 96; paper 686)\n"
      "  --planes=N   dataplanes (default 4)\n"
      "  --rounds=N   RPCs per host (default 100; paper 1000)\n"
      "  --seed=N     base seed (default 1)\n");
  const bool paper = flags.paper_scale();
  const int hosts = flags.get_int("hosts", paper ? 686 : 96);
  const int planes = flags.get_int("planes", 4);
  const int rounds = flags.get_int("rounds", paper ? 1000 : 100);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_i64("seed", 1));

  bench::Experiment experiment(flags, "fig10_table2");
  for (auto type : bench::kAllTypes) {
    exp::ExperimentSpec spec;
    spec.name = topo::to_string(type);
    spec.engine = exp::EngineKind::kCustom;
    spec.seed = seed;
    spec.trials = experiment.trials(1);
    experiment.add(std::move(spec), [=](const exp::TrialContext& ctx) {
      return run_rpcs(type, hosts, planes, 1500, rounds, ctx);
    });
  }
  const auto results = experiment.run();

  // Fig 10: CDFs (stepping with the hop-count distribution).
  for (const auto& cell : results) {
    bench::print_cdf("Fig 10 CDF: " + cell.spec.name,
                     Cdf::from_samples(cell.merged_fct_us()),
                     "completion time (us)");
  }

  // Table 2: statistics relative to serial low-bw.
  const auto base = results.front().fct();
  TextTable table("Table 2: 1500B RPC completion time, % of serial low-bw "
                  "(paper: het 80.1/86.6/90.4, high-bw ~98)",
                  {"network", "median %", "average %", "99%-tile %"});
  for (const auto& cell : results) {
    const auto s = cell.fct();
    table.add_row(cell.spec.name, {100.0 * s.median / base.median,
                                   100.0 * s.mean / base.mean,
                                   100.0 * s.p99 / base.p99},
                  1);
  }
  table.print();
  return experiment.finish();
}
