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
// are one closed-loop cell per (trace, network type), fanned over
// --threads by exp::Runner.
//
// Usage: bench_fig13 [--hosts=64] [--planes=4] [--rounds=8] [--seed=1]
//        [--cap_mb=16]  (--scale=paper: 686 hosts, more rounds, no cap)
#include "common.hpp"
#include "workload/traces.hpp"

using namespace pnet;

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
      auto spec = bench::driver_spec(
          workload::to_string(trace) + "/" + topo::to_string(type),
          exp::WorkloadSpec::Pattern::kClosedLoop,
          topo::TopoKind::kJellyfish, type, hosts, planes, seed);
      spec.sim.queue_buffer_bytes = 400 * 1500;
      spec.workload.concurrent = 4;  // saturating closed loop, §5.3
      spec.workload.rounds = rounds;
      spec.workload.trace = trace;
      spec.workload.trace_cap_bytes = cap;
      spec.trials = experiment.trials(1);
      experiment.add(std::move(spec));
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
