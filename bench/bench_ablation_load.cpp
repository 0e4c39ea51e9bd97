// Ablation: open-loop latency-vs-load curves for the four network types.
//
// Poisson arrivals of 100 kB flows at a configured fraction of the edge
// bandwidth; the classic hockey-stick: latency is flat until the offered
// load approaches the fabric's usable capacity, then the knee. A P-Net's
// knee sits close to the serial high-bandwidth network's, far beyond
// serial low-bw — the throughput claim of the paper in open-loop form.
//
// One open-loop packet spec per (load, network type) (exp::WorkloadSpec::
// Pattern::kOpenLoop); the whole grid fans out through exp::Runner.
//
// Usage: bench_ablation_load [--hosts=48] [--flows=400] [--seed=1]
#include "common.hpp"

using namespace pnet;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header("Ablation: open-loop latency vs offered load "
                      "(100 kB Poisson flows)",
                      flags,
                      "bench_ablation_load: open-loop latency vs offered "
                      "load\n"
                      "\n"
                      "  --hosts=N    hosts per network (default 48)\n"
                      "  --flows=N    Poisson flows per load point "
                      "(default 400)\n"
                      "  --seed=N     topology/arrival seed (default 1)\n");
  const int hosts = flags.get_int("hosts", 48);
  const int flows = flags.get_int("flows", 400);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_i64("seed", 1));

  const std::vector<double> loads = {0.1, 0.3, 0.5, 0.7, 0.9, 1.2};
  bench::Experiment experiment(flags, "ablation_load");
  for (double load : loads) {
    for (auto type : bench::kAllTypes) {
      auto spec = bench::driver_spec(
          "load=" + format_double(load, 1) + "/" + topo::to_string(type),
          exp::WorkloadSpec::Pattern::kOpenLoop, topo::TopoKind::kJellyfish,
          type, hosts, 4, seed);
      spec.policy.policy = core::RoutingPolicy::kRoundRobin;
      spec.sim.queue_buffer_bytes = 400 * 1500;
      spec.workload.flow_bytes = 100'000;
      spec.workload.rounds = flows;
      // Load is defined against the SERIAL edge bandwidth so the same
      // x-axis stresses every network type equally (parallel types have
      // N x capacity headroom at equal offered load).
      spec.workload.load = load;
      spec.deadline = 5 * units::kSecond;
      spec.trials = experiment.trials(1);
      experiment.add(std::move(spec));
    }
  }
  const auto results = experiment.run();
  const std::size_t num_types = std::size(bench::kAllTypes);

  for (const char* metric : {"median", "p99"}) {
    TextTable table(std::string("FCT ") + metric +
                        " (us) vs offered load (fraction of 1x100G edge)",
                    {"load", "serial low-bw", "par hom", "par het",
                     "serial high-bw"});
    for (std::size_t i = 0; i < loads.size(); ++i) {
      std::vector<double> row;
      for (std::size_t j = 0; j < num_types; ++j) {
        const auto s = results[i * num_types + j].fct();
        row.push_back(metric[0] == 'm' ? s.median : s.p99);
      }
      table.add_row(format_double(loads[i], 1), row, 1);
    }
    table.print();
  }
  std::printf("The serial low-bw curve knees first (its capacity IS the\n"
              "x-axis unit); the P-Nets track the 4x serial high-bw curve.\n");
  return experiment.finish();
}
