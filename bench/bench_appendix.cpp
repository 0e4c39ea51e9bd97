// Appendix A (Figs 16-20): FCT distributions for all five published traces
// at two speed grades (10/40G and 100/400G) on both topologies (fat tree
// and Jellyfish), four network types each.
//
// The paper's appendix findings: at 10/40G, P-Nets cut latency on most
// flows (better load balancing across planes); at 100/400G the
// heterogeneous path-length advantage lets short flows beat even the ideal
// 400G serial network. Fat trees have no heterogeneous variant, so those
// cells are skipped, as in the paper.
//
// One custom-engine cell per (trace, grade, topology, type); the whole
// grid fans out through exp::Runner.
//
// Usage: bench_appendix [--hosts=48] [--rounds=4] [--seed=1] [--cap_mb=8]
#include "common.hpp"
#include "workload/apps.hpp"
#include "workload/traces.hpp"

using namespace pnet;

namespace {

exp::TrialResult run_config(topo::TopoKind kind, topo::NetworkType type,
                            workload::Trace trace, int hosts,
                            double base_rate, int rounds,
                            std::uint64_t cap_bytes,
                            const exp::TrialContext& ctx) {
  auto spec = bench::make_spec(kind, type, hosts, 4, ctx.seed);
  spec.base_rate_bps = base_rate;
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kShortestPlane;
  sim::SimConfig sim_config;
  sim_config.queue_buffer_bytes = 400 * 1500;
  core::SimHarness harness({.spec = spec, .policy = policy, .sim_config = sim_config});

  const auto& dist = workload::FlowSizeDistribution::of(trace);
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
      [&dist, cap_bytes](Rng& rng) { return dist.sample(rng, cap_bytes); });
  app.start(0);
  harness.run();

  exp::TrialResult r;
  r.fct_us = app.completion_times_us();
  r.flows_started = static_cast<std::uint64_t>(harness.net().num_hosts()) *
                    2ULL * static_cast<std::uint64_t>(rounds);
  r.flows_finished = r.fct_us.size();
  r.delivered_bytes =
      static_cast<double>(harness.factory().total_delivered_bytes());
  r.sim_seconds = units::to_seconds(harness.events().now());
  r.events = harness.dispatched();
  return r;
}

bool skip_cell(topo::TopoKind kind, topo::NetworkType type) {
  // Fat trees have no heterogeneous instantiation (paper note).
  return kind == topo::TopoKind::kFatTree &&
         type == topo::NetworkType::kParallelHeterogeneous;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header(
      "Appendix A (Figs 16-20): trace FCTs x {10/40G, 100/400G} x "
      "{fat tree, Jellyfish}",
      flags,
      "bench_appendix: appendix A trace FCT grid\n"
      "\n"
      "  --hosts=N    hosts per network (default 48; paper 250)\n"
      "  --rounds=N   trace rounds (default 4; paper 20)\n"
      "  --cap_mb=N   cap trace flow sizes at N MB, 0 = uncapped\n"
      "  --seed=N     topology/trace seed (default 1)\n");
  const bool paper = flags.paper_scale();
  const int hosts = flags.get_int("hosts", paper ? 250 : 48);
  const int rounds = flags.get_int("rounds", paper ? 20 : 4);
  const std::uint64_t cap =
      static_cast<std::uint64_t>(flags.get_i64("cap_mb", paper ? 0 : 8)) *
      1'000'000ULL;
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_i64("seed", 1));

  // Paper order: websearch (16), webserver (17), cache (18), hadoop (19),
  // datamining (20).
  const workload::Trace order[] = {
      workload::Trace::kWebSearch, workload::Trace::kWebServer,
      workload::Trace::kCache, workload::Trace::kHadoop,
      workload::Trace::kDataMining};
  const double rates[] = {10e9, 100e9};
  const topo::TopoKind kinds[] = {topo::TopoKind::kFatTree,
                                  topo::TopoKind::kJellyfish};

  bench::Experiment experiment(flags, "appendix");
  for (auto trace : order) {
    for (double base_rate : rates) {
      for (auto kind : kinds) {
        for (auto type : bench::kAllTypes) {
          if (skip_cell(kind, type)) continue;
          exp::ExperimentSpec spec;
          spec.name = std::string(workload::to_string(trace)) + "/" +
                      (base_rate == 10e9 ? "10G" : "100G") + "/" +
                      topo::to_string(kind) + "/" + topo::to_string(type);
          spec.engine = exp::EngineKind::kCustom;
          spec.seed = seed;
          spec.trials = experiment.trials(1);
          experiment.add(std::move(spec), [=](const exp::TrialContext& ctx) {
            return run_config(kind, type, trace, hosts, base_rate, rounds,
                              cap, ctx);
          });
        }
      }
    }
  }
  const auto results = experiment.run();

  const int figure_base = 16;
  int figure = figure_base;
  std::size_t next = 0;
  for (auto trace : order) {
    for (double base_rate : rates) {
      for (auto kind : kinds) {
        const std::string grade =
            base_rate == 10e9 ? "10/40G" : "100/400G";
        TextTable table("Fig " + std::to_string(figure) + " (" +
                            workload::to_string(trace) + ", " + grade +
                            ", " + topo::to_string(kind) + "): FCT (us)",
                        {"network", "median", "p90", "p99"});
        for (auto type : bench::kAllTypes) {
          if (skip_cell(kind, type)) continue;
          const auto s = results[next++].fct();
          table.add_row(topo::to_string(type), {s.median, s.p90, s.p99}, 1);
        }
        table.print();
      }
    }
    ++figure;
  }
  return experiment.finish();
}
