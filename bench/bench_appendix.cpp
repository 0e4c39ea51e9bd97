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
// One closed-loop cell per (trace, grade, topology, type); the whole
// grid fans out through exp::Runner.
//
// Usage: bench_appendix [--hosts=48] [--rounds=4] [--seed=1] [--cap_mb=8]
#include "common.hpp"
#include "workload/traces.hpp"

using namespace pnet;

namespace {

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
          auto spec = bench::driver_spec(
              workload::to_string(trace) + "/" +
                  (base_rate == 10e9 ? "10G" : "100G") + "/" +
                  topo::to_string(kind) + "/" + topo::to_string(type),
              exp::WorkloadSpec::Pattern::kClosedLoop, kind, type, hosts, 4,
              seed);
          spec.topo.base_rate_bps = base_rate;
          spec.sim.queue_buffer_bytes = 400 * 1500;
          spec.workload.concurrent = 2;
          spec.workload.rounds = rounds;
          spec.workload.trace = trace;
          spec.workload.trace_cap_bytes = cap;
          spec.trials = experiment.trials(1);
          experiment.add(std::move(spec));
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
