// Figure 12: simulated Hadoop-sort per-worker completion time per stage
// (read input / shuffle / write output), single-path routing, four network
// types, N = 4 dataplanes.
//
// Paper setup: 250-host cluster, 32 mappers + 32 reducers sorting 100 GB in
// 128 MB blocks, 4 concurrent blocks per worker; the shuffle is 32x32 equal
// flows. Default run scales the data down (EXPERIMENTS.md records the
// exact parameters); --scale=paper restores the full job.
//
// Expected shape: sparse stages (read/write) benefit from parallel planes
// and heterogeneous short paths; the dense shuffle brings parallel networks
// close to serial high-bw, with no extra heterogeneous win (flows collide
// on the popular short paths, §5.2.2).
//
// One Hadoop packet spec per network type (exp::WorkloadSpec::Pattern::
// kHadoop); the three stage timelines ride in the cell's named sample sets
// (stage1_s/stage2_s/stage3_s, seconds).
//
// Usage: bench_fig12 [--hosts=100] [--mappers=16] [--reducers=16]
//        [--gb=2] [--block_mb=32] [--seed=1]
#include "common.hpp"

using namespace pnet;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header("Figure 12: Hadoop-like sort, per-worker stage "
                      "completion times",
                      flags,
                      "bench_fig12: Hadoop-like sort stage times\n"
                      "\n"
                      "  --hosts=N     cluster hosts (default 100)\n"
                      "  --mappers=N   map workers (default 16)\n"
                      "  --reducers=N  reduce workers (default 16)\n"
                      "  --gb=X        total sort gigabytes (default 2)\n"
                      "  --block_mb=N  block size in MB (default 32)\n"
                      "  --seed=N      placement seed (default 1)\n");
  const bool paper = flags.paper_scale();
  const int hosts = flags.get_int("hosts", paper ? 250 : 100);
  const int mappers = flags.get_int("mappers", paper ? 32 : 16);
  const int reducers = flags.get_int("reducers", paper ? 32 : 16);
  // A size the job cannot take reaches validate() as 0 bytes (exit 2).
  const double gb = flags.get_double("gb", paper ? 100 : 2);
  const std::uint64_t job_bytes =
      gb > 0 && gb < 1e9 ? static_cast<std::uint64_t>(gb * 1e9) : 0;
  const auto block_bytes = static_cast<std::uint64_t>(
      flags.get_i64("block_mb", paper ? 128 : 32)) * 1'000'000ULL;
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_i64("seed", 1));

  bench::Experiment experiment(flags, "fig12");
  for (auto type : bench::kAllTypes) {
    auto spec = bench::driver_spec(topo::to_string(type),
                                   exp::WorkloadSpec::Pattern::kHadoop,
                                   topo::TopoKind::kJellyfish, type, hosts, 4,
                                   seed);
    spec.sim.queue_buffer_bytes = 400 * 1500;  // bulk-transfer buffers
    spec.workload.flow_bytes = block_bytes;
    spec.workload.concurrent = 4;  // blocks in flight per worker
    spec.workload.mappers = mappers;
    spec.workload.reducers = reducers;
    spec.workload.job_bytes = job_bytes;
    spec.trials = experiment.trials(1);
    experiment.add(std::move(spec));
  }
  const auto results = experiment.run();

  const char* stage_names[] = {"read input", "shuffle", "write output"};
  for (int stage = 0; stage < 3; ++stage) {
    const std::string key = "stage" + std::to_string(stage + 1) + "_s";
    TextTable table(std::string("Fig 12, stage ") + std::to_string(stage + 1) +
                        " (" + stage_names[stage] +
                        "): per-worker completion time (s)",
                    {"network", "median", "mean", "p90", "max"});
    for (const auto& cell : results) {
      const auto s = exp::summarize(cell.merged_samples(key));
      table.add_row(cell.spec.name, {s.median, s.mean, s.p90, s.max}, 4);
    }
    table.print();
  }
  return experiment.finish();
}
