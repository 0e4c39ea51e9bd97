// Ablation: open-loop latency-vs-load curves for the four network types.
//
// Poisson arrivals of 100 kB flows at a configured fraction of the edge
// bandwidth; the classic hockey-stick: latency is flat until the offered
// load approaches the fabric's usable capacity, then the knee. A P-Net's
// knee sits close to the serial high-bandwidth network's, far beyond
// serial low-bw — the throughput claim of the paper in open-loop form.
//
// One custom-engine cell per (load, network type); the whole grid fans out
// through exp::Runner.
//
// Usage: bench_ablation_load [--hosts=48] [--flows=400] [--seed=1]
#include "common.hpp"
#include "workload/open_loop.hpp"

using namespace pnet;

namespace {

exp::TrialResult run_load(topo::NetworkType type, double load, int hosts,
                          int flows, const exp::TrialContext& ctx) {
  const auto spec = bench::make_spec(topo::TopoKind::kJellyfish, type,
                                     hosts, 4, ctx.seed);
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kRoundRobin;
  sim::SimConfig sim_config;
  sim_config.queue_buffer_bytes = 400 * 1500;
  core::SimHarness harness({.spec = spec, .policy = policy, .sim_config = sim_config});

  workload::OpenLoopApp::Config config;
  // Load is defined against the SERIAL edge bandwidth so the same x-axis
  // stresses every network type equally (parallel types have N x capacity
  // headroom at equal offered load).
  config.load = load;
  config.max_flows = flows;
  config.seed = mix64(ctx.seed);
  workload::OpenLoopApp app(
      harness.events(), harness.starter(), harness.all_hosts(),
      /*host_uplink_bps=*/100e9, /*mean_flow_bytes=*/100'000.0, config,
      [&](HostId src, Rng& rng) {
        return workload::random_destination(harness.net().num_hosts(), src,
                                            rng);
      },
      [](Rng&) { return std::uint64_t{100'000}; });
  app.start(0);
  harness.run_until(5 * units::kSecond);

  exp::TrialResult r;
  r.fct_us = app.completion_times_us();
  r.flows_started = static_cast<std::uint64_t>(flows);
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
      exp::ExperimentSpec spec;
      spec.name = "load=" + format_double(load, 1) + "/" +
                  topo::to_string(type);
      spec.engine = exp::EngineKind::kCustom;
      spec.seed = seed;
      spec.trials = experiment.trials(1);
      experiment.add(std::move(spec), [=](const exp::TrialContext& ctx) {
        return run_load(type, load, hosts, flows, ctx);
      });
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
