// Figure 13: published datacenter flow traces.
//   (a) flow-size CDFs of the five traces (websearch, datamining,
//       webserver, cache, hadoop);
//   (b) Datamining FCT distribution on Jellyfish, 100/400G;
//   (c) Websearch FCT distribution on Jellyfish, 100/400G.
//
// Setup mirrors §5.3: four concurrent closed-loop flows per host, sizes
// drawn from the trace, single-path routing, four network types. Expected
// shape: short-flow traces (datamining) get lower latency on P-Nets —
// especially heterogeneous — via shorter paths and better tolerance of
// concurrent flows; throughput-bound traces (websearch) see P-Nets close
// most of the gap to serial high-bw.
//
// Part (a) is pure distribution sampling and stays inline; parts (b)/(c)
// are one custom-engine cell per (trace, network type), fanned over
// --threads by exp::Runner.
//
// Usage: bench_fig13 [--hosts=64] [--planes=4] [--rounds=8] [--seed=1]
//        [--cap_mb=16]  (--scale=paper: 686 hosts, more rounds, no cap)
#include "common.hpp"
#include "workload/apps.hpp"
#include "workload/traces.hpp"

using namespace pnet;

namespace {

exp::TrialResult run_trace(topo::NetworkType type, workload::Trace trace,
                           int hosts, int planes, int rounds,
                           std::uint64_t cap_bytes,
                           const exp::TrialContext& ctx) {
  const auto spec = bench::make_spec(topo::TopoKind::kJellyfish, type,
                                     hosts, planes, ctx.seed);
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kShortestPlane;  // single path, §5.3
  sim::SimConfig sim_config;
  sim_config.queue_buffer_bytes = 400 * 1500;
  core::SimHarness harness({.spec = spec, .policy = policy, .sim_config = sim_config});

  const auto& dist = workload::FlowSizeDistribution::of(trace);
  workload::ClosedLoopApp::Config config;
  config.concurrent_per_host = 4;  // saturating closed loop, §5.3
  config.rounds_per_worker = rounds;
  config.seed = mix64(ctx.seed);
  workload::ClosedLoopApp app(
      harness.starter(), harness.all_hosts(), config,
      [&](HostId src, Rng& rng) {
        return workload::random_destination(harness.net().num_hosts(), src,
                                            rng);
      },
      [&dist, cap_bytes](Rng& rng) { return dist.sample(rng, cap_bytes); });
  app.start(0);
  harness.run();

  exp::TrialResult r;
  r.fct_us = app.completion_times_us();
  r.flows_started = static_cast<std::uint64_t>(harness.net().num_hosts()) *
                    4ULL * static_cast<std::uint64_t>(rounds);
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
  bench::print_header("Figure 13: published DC flow traces", flags,
                      "bench_fig13: trace-driven closed-loop FCTs\n"
                      "\n"
                      "  --hosts=N    hosts (default 64; paper 686)\n"
                      "  --planes=N   dataplanes (default 4)\n"
                      "  --rounds=N   trace rounds (default 8; paper 40)\n"
                      "  --cap_mb=N   cap trace flow sizes at N MB, "
                      "0 = uncapped\n"
                      "  --seed=N     base seed (default 1)\n");
  const bool paper = flags.paper_scale();
  const int hosts = flags.get_int("hosts", paper ? 686 : 64);
  const int planes = flags.get_int("planes", 4);
  const int rounds = flags.get_int("rounds", paper ? 40 : 8);
  const std::uint64_t cap =
      static_cast<std::uint64_t>(flags.get_i64("cap_mb", paper ? 0 : 16)) *
      1'000'000ULL;
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_i64("seed", 1));

  // --- (a) flow size CDFs ----------------------------------------------
  TextTable sizes("Fig 13a: flow size CDF anchors (bytes at percentile)",
                  {"trace", "p10", "p50", "p90", "p99", "mean"});
  for (auto trace : workload::kAllTraces) {
    const auto& dist = workload::FlowSizeDistribution::of(trace);
    Rng rng(1);
    std::vector<double> samples;
    for (int i = 0; i < 50000; ++i) {
      samples.push_back(static_cast<double>(dist.sample(rng)));
    }
    const auto ps = percentiles(samples, {10, 50, 90, 99});
    sizes.add_row(workload::to_string(trace),
                  {ps[0], ps[1], ps[2], ps[3], dist.mean_bytes()}, 0);
  }
  sizes.print();

  // --- (b)/(c) FCT distributions on Jellyfish 100/400G ------------------
  const workload::Trace traces[] = {workload::Trace::kDataMining,
                                    workload::Trace::kWebSearch};
  bench::Experiment experiment(flags, "fig13");
  for (auto trace : traces) {
    for (auto type : bench::kAllTypes) {
      exp::ExperimentSpec spec;
      spec.name = std::string(workload::to_string(trace)) + "/" +
                  topo::to_string(type);
      spec.engine = exp::EngineKind::kCustom;
      spec.seed = seed;
      spec.trials = experiment.trials(1);
      experiment.add(std::move(spec), [=](const exp::TrialContext& ctx) {
        return run_trace(type, trace, hosts, planes, rounds, cap, ctx);
      });
    }
  }
  const auto results = experiment.run();
  const std::size_t num_types = std::size(bench::kAllTypes);

  for (std::size_t t = 0; t < std::size(traces); ++t) {
    const char* label = traces[t] == workload::Trace::kDataMining
                            ? "Fig 13b" : "Fig 13c";
    TextTable table(std::string(label) + ": " +
                        workload::to_string(traces[t]) +
                        " FCT (us) on Jellyfish, single-path closed loop",
                    {"network", "median", "p90", "p99", "mean"});
    for (std::size_t j = 0; j < num_types; ++j) {
      const auto s = results[t * num_types + j].fct();
      table.add_row(topo::to_string(bench::kAllTypes[j]),
                    {s.median, s.p90, s.p99, s.mean}, 1);
    }
    table.print();
    for (std::size_t j = 0; j < num_types; ++j) {
      bench::print_cdf(
          std::string(label) + " CDF: " +
              topo::to_string(bench::kAllTypes[j]),
          Cdf::from_samples(results[t * num_types + j].merged_fct_us()),
          "FCT (us)", 12);
    }
  }
  return experiment.finish();
}
