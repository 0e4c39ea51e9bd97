// Ablation: the five path-selection policies head-to-head on one 4-plane
// heterogeneous Jellyfish P-Net, for a latency workload (20 kB RPC-sized
// flows) and a bandwidth workload (16 MB bulk flows).
//
// This quantifies the paper's policy narrative in one table: naive ECMP
// wastes planes on sparse traffic, round-robin load-balances, the
// shortest-plane interface wins latency, KSP multipath wins bulk, and the
// size-threshold policy gets both by dispatching on flow size (§5.1.2).
//
// One custom-engine cell per (workload, policy); exp::Runner fans the
// 10-cell grid over --threads.
//
// Usage: bench_ablation_policies [--hosts=64] [--planes=4] [--rounds=10]
#include "common.hpp"
#include "workload/apps.hpp"

using namespace pnet;

namespace {

exp::TrialResult run_policy(core::RoutingPolicy policy_kind, int hosts,
                            int planes, std::uint64_t flow_bytes, int rounds,
                            const exp::TrialContext& ctx) {
  const auto spec =
      bench::make_spec(topo::TopoKind::kJellyfish,
                       topo::NetworkType::kParallelHeterogeneous, hosts,
                       planes, ctx.seed);
  core::PolicyConfig policy;
  policy.policy = policy_kind;
  policy.k = planes;
  sim::SimConfig sim_config;
  sim_config.queue_buffer_bytes = 400 * 1500;
  core::SimHarness harness({.spec = spec, .policy = policy, .sim_config = sim_config});

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
      [flow_bytes](Rng&) { return flow_bytes; });
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

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header("Ablation: path-selection policies "
                      "(4-plane heterogeneous Jellyfish)",
                      flags,
                      "bench_ablation_policies: path-selection policy "
                      "shoot-out\n"
                      "\n"
                      "  --hosts=N    hosts per network (default 64)\n"
                      "  --planes=N   dataplanes (default 4)\n"
                      "  --rounds=N   RPC rounds per worker (default 10)\n"
                      "  --seed=N     topology/workload seed (default 1)\n");
  const int hosts = flags.get_int("hosts", 64);
  const int planes = flags.get_int("planes", 4);
  const int rounds = flags.get_int("rounds", 10);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_i64("seed", 1));

  const core::RoutingPolicy policies[] = {
      core::RoutingPolicy::kEcmp, core::RoutingPolicy::kRoundRobin,
      core::RoutingPolicy::kShortestPlane,
      core::RoutingPolicy::kKspMultipath,
      core::RoutingPolicy::kSizeThreshold};
  const std::vector<std::pair<std::string, std::uint64_t>> workloads = {
      {"latency workload: 20 kB flows", 20'000},
      {"bandwidth workload: 16 MB flows", 16'000'000}};

  bench::Experiment experiment(flags, "ablation_policies");
  for (const auto& [label, bytes] : workloads) {
    for (auto p : policies) {
      exp::ExperimentSpec spec;
      spec.name = std::string(core::to_string(p)) + "/" +
                  std::to_string(bytes) + "B";
      spec.engine = exp::EngineKind::kCustom;
      spec.seed = seed;
      spec.trials = experiment.trials(1);
      const std::uint64_t b = bytes;
      experiment.add(std::move(spec), [=](const exp::TrialContext& ctx) {
        return run_policy(p, hosts, planes, b, rounds, ctx);
      });
    }
  }
  const auto results = experiment.run();
  const std::size_t num_policies = std::size(policies);

  for (std::size_t w = 0; w < workloads.size(); ++w) {
    TextTable table("FCT (us) by policy — " + workloads[w].first,
                    {"policy", "median", "p90", "p99", "mean"});
    for (std::size_t i = 0; i < num_policies; ++i) {
      const auto s = results[w * num_policies + i].fct();
      table.add_row(core::to_string(policies[i]),
                    {s.median, s.p90, s.p99, s.mean}, 1);
    }
    table.print();
  }
  std::printf(
      "Reading: single-path policies — shortest-plane leads ecmp/rr on\n"
      "latency; ksp-multipath leads the bandwidth table; size-threshold\n"
      "tracks shortest-plane for small flows and ksp for bulk. (In this\n"
      "simulator ksp-multipath also does well on tiny flows because\n"
      "subflows cost nothing to set up; the paper's §5.1.2 caveat about\n"
      "MPTCP hurting short flows concerns real stacks under load.)\n");
  return experiment.finish();
}
