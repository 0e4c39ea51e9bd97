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
// One custom-engine cell per network type; the three stage timelines ride
// in the cell's named sample sets (stage1/stage2/stage3, seconds).
//
// Usage: bench_fig12 [--hosts=100] [--mappers=16] [--reducers=16]
//        [--gb=2] [--block_mb=32] [--seed=1]
#include "common.hpp"
#include "workload/apps.hpp"

using namespace pnet;

namespace {

exp::TrialResult run_job(topo::NetworkType type, int hosts,
                         workload::HadoopJob::Config job_config,
                         const exp::TrialContext& ctx) {
  const auto spec =
      bench::make_spec(topo::TopoKind::kJellyfish, type, hosts, 4, ctx.seed);
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kShortestPlane;  // single path
  sim::SimConfig sim_config;
  sim_config.queue_buffer_bytes = 400 * 1500;  // bulk-transfer buffers
  core::SimHarness harness({.spec = spec, .policy = policy, .sim_config = sim_config});

  job_config.seed = mix64(ctx.seed);
  workload::HadoopJob job(harness.starter(), harness.all_hosts(),
                          job_config);
  job.start(0);
  harness.run();

  exp::TrialResult r;
  r.samples["stage1_s"] = job.stage_worker_times_s(0);
  r.samples["stage2_s"] = job.stage_worker_times_s(1);
  r.samples["stage3_s"] = job.stage_worker_times_s(2);
  // Surface an unfinished job through the flow counters.
  r.flows_started = 1;
  r.flows_finished = job.finished() ? 1 : 0;
  r.delivered_bytes =
      static_cast<double>(harness.factory().total_delivered_bytes());
  r.sim_seconds = units::to_seconds(harness.events().now());
  r.events = harness.dispatched();
  return r;
}

}  // namespace

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
                      "  --gb=N        total sort gigabytes (default 2)\n"
                      "  --block_mb=N  block size in MB (default 32)\n"
                      "  --seed=N      placement seed (default 1)\n");
  const bool paper = flags.paper_scale();
  const int hosts = flags.get_int("hosts", paper ? 250 : 100);

  workload::HadoopJob::Config job_config;
  job_config.num_mappers = flags.get_int("mappers", paper ? 32 : 16);
  job_config.num_reducers = flags.get_int("reducers", paper ? 32 : 16);
  job_config.total_bytes =
      static_cast<std::uint64_t>(flags.get_i64("gb", paper ? 100 : 2)) *
      1'000'000'000ULL;
  job_config.block_bytes = static_cast<std::uint64_t>(
      flags.get_i64("block_mb", paper ? 128 : 32)) * 1'000'000ULL;
  job_config.concurrent_blocks = 4;
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_i64("seed", 1));

  bench::Experiment experiment(flags, "fig12");
  for (auto type : bench::kAllTypes) {
    exp::ExperimentSpec spec;
    spec.name = topo::to_string(type);
    spec.engine = exp::EngineKind::kCustom;
    spec.seed = seed;
    spec.trials = experiment.trials(1);
    experiment.add(std::move(spec), [=](const exp::TrialContext& ctx) {
      return run_job(type, hosts, job_config, ctx);
    });
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
