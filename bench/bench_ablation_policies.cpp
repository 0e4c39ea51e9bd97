// Ablation: the five path-selection policies head-to-head on one 4-plane
// heterogeneous Jellyfish P-Net, for a latency workload (20 kB RPC-sized
// flows) and a bandwidth workload (16 MB bulk flows).
//
// This quantifies the paper's policy narrative in one table: naive ECMP
// wastes planes on sparse traffic, round-robin load-balances, the
// shortest-plane interface wins latency, KSP multipath wins bulk, and the
// size-threshold policy gets both by dispatching on flow size (§5.1.2).
//
// One closed-loop cell per (workload, policy); exp::Runner fans the
// 10-cell grid over --threads.
//
// Usage: bench_ablation_policies [--hosts=64] [--planes=4] [--rounds=10]
#include "common.hpp"

using namespace pnet;

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
      auto spec = bench::driver_spec(
          std::string(core::to_string(p)) + "/" + std::to_string(bytes) +
              "B",
          exp::WorkloadSpec::Pattern::kClosedLoop, topo::TopoKind::kJellyfish,
          topo::NetworkType::kParallelHeterogeneous, hosts, planes, seed);
      spec.policy.policy = p;
      spec.policy.k = planes;
      spec.sim.queue_buffer_bytes = 400 * 1500;
      spec.workload.concurrent = 2;
      spec.workload.flow_bytes = bytes;
      spec.workload.rounds = rounds;
      spec.trials = experiment.trials(1);
      experiment.add(std::move(spec));
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
