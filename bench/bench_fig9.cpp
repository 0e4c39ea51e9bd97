// Figure 9: small-flow FCT vs flow size on Jellyfish P-Nets.
//
// Permutation traffic, four network types, N = 4 dataplanes. As in the
// paper's best-of configuration (§5.1.2), serial networks use single-path
// routing and parallel networks use 4-way KSP + MPTCP. The paper's shape:
// parallel networks win for small flows (they slow-start over more paths,
// finishing before queues fill), the advantage narrows around ~100 MB
// (MPTCP probes slowly), and grows again for bulk flows.
//
// Every (flow size, network type) pair is one ExperimentSpec cell; the
// whole grid fans out through exp::Runner in a single pass, so --threads
// parallelizes across cells and --json captures the structured report.
//
// Usage: bench_fig9 [--hosts=96] [--planes=4] [--rounds=5] [--seed=1]
//        [--maxsize=10000000]   (--scale=paper: 686 hosts, up to 1 GB)
#include "common.hpp"

using namespace pnet;

namespace {

core::PolicyConfig policy_for(topo::NetworkType type, int planes) {
  core::PolicyConfig policy;
  const bool parallel = type == topo::NetworkType::kParallelHomogeneous ||
                        type == topo::NetworkType::kParallelHeterogeneous;
  if (parallel) {
    policy.policy = core::RoutingPolicy::kKspMultipath;
    policy.k = planes;  // 4-way KSP gives the lowest FCTs on P-Nets (§5.1.2)
  } else {
    policy.policy = core::RoutingPolicy::kShortestPlane;  // single path
  }
  return policy;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header("Figure 9: small flow FCT vs flow size (permutation)",
                      flags,
                      "bench_fig9: FCT vs flow size on Jellyfish P-Nets\n"
                      "\n"
                      "  --hosts=N        hosts (default 96; paper 686)\n"
                      "  --planes=N       dataplanes (default 4)\n"
                      "  --rounds=N       permutation rounds (default 3)\n"
                      "  --maxsize=N      largest flow size in bytes\n"
                      "  --seed=N         base seed (default 1)\n"
                      "  --engine=E       packet|fsim (default packet)\n");
  const auto engine = bench::parse_engine(flags);
  const bool paper = flags.paper_scale();
  const int hosts = flags.get_int("hosts", paper ? 686 : 96);
  const int planes = flags.get_int("planes", 4);
  const int rounds = flags.get_int("rounds", paper ? 5 : 3);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_i64("seed", 1));
  const std::uint64_t max_size = static_cast<std::uint64_t>(
      flags.get_i64("maxsize", paper ? 1'000'000'000 : 10'000'000));

  std::vector<std::uint64_t> sizes = {100'000, 1'000'000, 10'000'000,
                                      100'000'000, 1'000'000'000};
  std::erase_if(sizes, [&](std::uint64_t s) { return s > max_size; });

  bench::Experiment experiment(flags, "fig9");
  for (std::uint64_t size : sizes) {
    for (auto type : bench::kAllTypes) {
      exp::ExperimentSpec spec;
      spec.name = format_double(static_cast<double>(size) / 1e6, 1) +
                  "MB/" + topo::to_string(type);
      spec.topo = bench::make_spec(topo::TopoKind::kJellyfish, type, hosts,
                                   planes, seed);
      spec.policy = policy_for(type, planes);
      spec.engine = engine;
      // Bulk-transfer experiments use deeper per-port buffers (400 MTUs),
      // as htsim TCP studies do; the shallow 100-packet default is kept
      // for the RPC experiments where drop behaviour is the point (Fig 11).
      spec.sim.queue_buffer_bytes = 400 * 1500;
      spec.workload.flow_bytes = size;
      spec.workload.rounds = rounds;
      spec.seed = seed;
      spec.trials = experiment.trials(1);
      experiment.add(std::move(spec));
    }
  }
  const auto results = experiment.run();

  TextTable table(std::string("Fig 9: mean FCT (us) with stddev, by flow "
                              "size [engine=") +
                      bench::to_string(engine) + "]",
                  {"flow size", "serial low-bw", "sd", "par hom", "sd",
                   "par het", "sd", "serial high-bw", "sd"});
  const std::size_t num_types = std::size(bench::kAllTypes);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::vector<double> row;
    for (std::size_t j = 0; j < num_types; ++j) {
      const auto s = results[i * num_types + j].fct();
      row.push_back(s.mean);
      row.push_back(s.stddev);
    }
    table.add_row(
        format_double(static_cast<double>(sizes[i]) / 1e6, 1) + " MB", row,
        1);
  }
  table.print();

  // With --sample-every, the built-in engines record a goodput timeline
  // per trial through telemetry::Sampler; surface the largest flow size's
  // curves as a companion table (time axis from the serial low-bw cell —
  // cells whose grid downsampled differently just truncate).
  if (flags.get_double("sample-every", 0.0) > 0 && !sizes.empty()) {
    TextTable curves("Fig 9 companion: sampler goodput timeline at the "
                     "largest flow size (Gb/s)",
                     {"t (ms)", "serial low-bw", "par hom", "par het",
                      "serial high-bw"});
    const std::size_t base = (sizes.size() - 1) * num_types;
    const auto& axis = results[base].trials.front().samples;
    const auto t_it = axis.find("tm/t_us");
    const std::size_t points =
        t_it == axis.end() ? 0 : t_it->second.size();
    const std::size_t stride = points > 24 ? points / 24 : 1;
    for (std::size_t b = 0; b < points; b += stride) {
      std::vector<double> row;
      for (std::size_t j = 0; j < num_types; ++j) {
        const auto& samples = results[base + j].trials.front().samples;
        const auto g = samples.find("tm/goodput_bps");
        row.push_back(g != samples.end() && b < g->second.size()
                          ? g->second[b] / units::kGbps
                          : 0.0);
      }
      curves.add_row(format_double(t_it->second[b] / 1000.0, 2), row, 2);
    }
    curves.print();
  }

  std::printf("\nExpected shape (paper): parallel networks at or below\n"
              "serial high-bw for flows <= 10 MB; the parallel advantage\n"
              "over serial low-bw narrows near 100 MB and grows again for\n"
              "1 GB bulk flows.\n");
  return experiment.finish();
}
