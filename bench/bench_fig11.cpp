// Figure 11: concurrent 100 kB RPC completion times (median / 90th / 99th
// percentile) as the number of outstanding RPCs per host grows from 1 to
// 10. Jellyfish, N = 4, single-path routing, shallow 100-packet buffers.
//
// The paper's shape: serial low-bw suffers most (limited bandwidth to drain
// queues and few paths to dodge collisions; its p99 explodes with drops and
// 10 ms retransmission timeouts — note the broken axis in Fig 11c); serial
// high-bw only drains faster; parallel networks spread the requests over
// 4x the paths and queues, keeping all percentiles mild.
//
// One closed-loop cell per (concurrency, network type) grid point, all
// fanned out together by exp::Runner; drops and timeouts ride in the
// cell's metrics.
//
// Usage: bench_fig11 [--hosts=64] [--planes=4] [--rounds=30] [--seed=1]
#include "common.hpp"

using namespace pnet;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header(
      "Figure 11: concurrent 100kB RPC completion time percentiles", flags,
      "bench_fig11: concurrent 100kB RPC percentiles\n"
      "\n"
      "  --hosts=N    hosts (default 64; paper 686)\n"
      "  --planes=N   dataplanes (default 4)\n"
      "  --rounds=N   RPC rounds per worker (default 30; paper 100)\n"
      "  --seed=N     base seed (default 1)\n");
  const bool paper = flags.paper_scale();
  const int hosts = flags.get_int("hosts", paper ? 686 : 64);
  const int planes = flags.get_int("planes", 4);
  const int rounds = flags.get_int("rounds", paper ? 100 : 30);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_i64("seed", 1));

  const std::vector<int> concurrency = {1, 2, 4, 6, 8, 10};
  const char* titles[] = {"Fig 11a: median (us)", "Fig 11b: 90%-tile (us)",
                          "Fig 11c: 99%-tile (us) [serial-low explodes via "
                          "drops + 10ms RTOs: the paper's broken axis]"};

  bench::Experiment experiment(flags, "fig11");
  for (int c : concurrency) {
    for (auto type : bench::kAllTypes) {
      auto spec = bench::driver_spec(
          "conc=" + std::to_string(c) + "/" + topo::to_string(type),
          exp::WorkloadSpec::Pattern::kClosedLoop,
          topo::TopoKind::kJellyfish, type, hosts, planes, seed);
      spec.workload.concurrent = c;
      spec.workload.flow_bytes = 100'000;
      spec.workload.response_bytes = 1500;  // small ack-sized reply
      spec.workload.rounds = rounds;
      spec.trials = experiment.trials(1);
      experiment.add(std::move(spec));
    }
  }
  const auto results = experiment.run();
  const std::size_t num_types = std::size(bench::kAllTypes);

  for (int which = 0; which < 3; ++which) {
    TextTable table(titles[which],
                    {"RPCs/host", "serial low-bw", "par hom", "par het",
                     "serial high-bw"});
    for (std::size_t i = 0; i < concurrency.size(); ++i) {
      std::vector<double> row;
      for (std::size_t j = 0; j < num_types; ++j) {
        const auto s = results[i * num_types + j].fct();
        row.push_back(which == 0 ? s.median : which == 1 ? s.p90 : s.p99);
      }
      table.add_row(std::to_string(concurrency[i]), row, 1);
    }
    table.print();
  }

  TextTable drops("Packet drops during the run (drives the p99 tail)",
                  {"RPCs/host", "serial low-bw", "par hom", "par het",
                   "serial high-bw"});
  for (std::size_t i = 0; i < concurrency.size(); ++i) {
    std::vector<double> row;
    for (std::size_t j = 0; j < num_types; ++j) {
      row.push_back(results[i * num_types + j].metric("drops").mean);
    }
    drops.add_row(std::to_string(concurrency[i]), row, 0);
  }
  drops.print();
  return experiment.finish();
}
