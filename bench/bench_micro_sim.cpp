// google-benchmark microbenchmarks for the packet simulator: raw event
// throughput, queue+pipe forwarding, and end-to-end simulated-bytes-per-
// wall-second for a TCP transfer — the numbers that bound how large an
// experiment the harness can run.
//
// The telemetry overhead budget lives here too: BM_TcpTransfer10MB is the
// disabled-path baseline (telemetry pointer null, trace macros test a
// pointer), BM_TcpTransfer10MBTelemetry the fully-enabled run (100 us
// sampling grid + tracing). The disabled path must stay within ~2% of a
// build without the telemetry wiring; compare against a pre-telemetry
// checkout when touching the hot paths.
//
// Besides the default google-benchmark mode, `--json[=PATH]` switches to a
// self-contained report mode measuring the data-plane hot path end to end:
// a raw queue+pipe forwarding loop (packets/sec) and a fixed permutation
// TCP scenario (events/sec and bytes/event), plus the slab/arena footprint
// behind them, plus a sharded-engine scaling sweep (packet_sim_mt: the
// same permutation scenario on a wider multi-plane fabric at
// --sim-threads 1/2/4/8, asserting the dispatched-event count is
// identical across shard worker counts), plus a closed-loop RPC cell shaped
// like perfbench's packet-rpc (rpc_sim: short flows, drops, RTO wake-ups),
// plus the fluid engine's water-fill on two paper-scale cells (fluid_solve,
// fluid_solve_serial), measured in a child process before the packet
// sections run. The result is one JSON document, committed as
// BENCH_micro_sim.json at the repo root; CI's micro-sim-perf job re-runs
// it and fails on a >15% events/sec regression of the packet_sim or
// rpc_sim row or a >15% rise of either fluid section's median run time,
// and checks that packet_sim's and rpc_sim's event counts and endpoint
// slots (the transport endpoints the flow factory held room for at once),
// the mt rows' and the fluid sections' counts and FCT digests equal the
// baseline's.
// Report-mode flags: --hosts, --planes, --bytes, --repeat, --mt-hosts,
// --mt-planes, --mt-bytes; any other flag exits 2.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/harness.hpp"
#include "exp/json.hpp"
#include "exp/spec.hpp"
#include "fsim/fluid.hpp"
#include "routing/shortest.hpp"
#include "sim/network.hpp"
#include "telemetry/telemetry.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload/apps.hpp"
#include "workload/patterns.hpp"

namespace {

using namespace pnet;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  class Nop : public sim::EventSource {
   public:
    void do_next_event() override {}
  };
  Nop nop;
  sim::EventQueue events;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      events.schedule_in((i * 37) % 1000, &nop);
    }
    events.run();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_QueuePipeForwarding(benchmark::State& state) {
  sim::EventQueue events;
  sim::PacketPool pool;
  class Sink : public sim::PacketSink {
   public:
    explicit Sink(sim::PacketPool& pool) : pool_(pool) {}
    void receive(sim::Packet& packet) override { pool_.free(&packet); }

   private:
    sim::PacketPool& pool_;
  };
  Sink sink(pool);
  sim::Queue queue(events, pool, 100e9, 1 << 20);
  sim::Pipe pipe(events, units::kMicrosecond);
  sim::OwnedRoute route({&queue, &pipe, &sink});
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      sim::Packet* p = pool.allocate();
      p->size_bytes = 1500;
      p->route = &route;
      p->next_hop = 0;
      p->forward();
    }
    events.run();
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_QueuePipeForwarding);

void BM_TcpTransfer10MB(benchmark::State& state) {
  for (auto _ : state) {
    topo::NetworkSpec spec;
    spec.topo = topo::TopoKind::kFatTree;
    spec.hosts = 16;
    core::PolicyConfig policy;
    policy.policy = core::RoutingPolicy::kShortestPlane;
    core::SimHarness harness({.spec = spec, .policy = policy});
    harness.starter()(HostId{0}, HostId{15}, 10'000'000, 0, {});
    harness.run();
  }
  state.SetBytesProcessed(state.iterations() * 10'000'000);
}
BENCHMARK(BM_TcpTransfer10MB)->Unit(benchmark::kMillisecond);

// Same transfer with telemetry fully on: sampling every 100 us of
// simulated time plus flow/fault tracing. The delta over BM_TcpTransfer10MB
// is the enabled-mode cost (sampler probes walk every queue at each grid
// point, so it scales with topology size and grid density).
void BM_TcpTransfer10MBTelemetry(benchmark::State& state) {
  for (auto _ : state) {
    topo::NetworkSpec spec;
    spec.topo = topo::TopoKind::kFatTree;
    spec.hosts = 16;
    core::PolicyConfig policy;
    policy.policy = core::RoutingPolicy::kShortestPlane;
    telemetry::Telemetry tel(
        {.sample_every = 100 * units::kMicrosecond, .trace = true});
    core::SimHarness harness(
        {.spec = spec, .policy = policy, .telemetry = &tel});
    harness.starter()(HostId{0}, HostId{15}, 10'000'000, 0, {});
    harness.run();
    benchmark::DoNotOptimize(tel.sampler.times().size());
  }
  state.SetBytesProcessed(state.iterations() * 10'000'000);
}
BENCHMARK(BM_TcpTransfer10MBTelemetry)->Unit(benchmark::kMillisecond);

void BM_MptcpTransfer10MB(benchmark::State& state) {
  for (auto _ : state) {
    topo::NetworkSpec spec;
    spec.topo = topo::TopoKind::kFatTree;
    spec.hosts = 16;
    spec.parallelism = 4;
    spec.type = topo::NetworkType::kParallelHomogeneous;
    core::PolicyConfig policy;
    policy.policy = core::RoutingPolicy::kKspMultipath;
    policy.k = 4;
    core::SimHarness harness({.spec = spec, .policy = policy});
    harness.starter()(HostId{0}, HostId{15}, 10'000'000, 0, {});
    harness.run();
  }
  state.SetBytesProcessed(state.iterations() * 10'000'000);
}
BENCHMARK(BM_MptcpTransfer10MB)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------- --json report

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One permutation-workload run: every host sends `bytes` to the host half
/// a ring away over a parallel fat tree. Returns {events, wall_s,
/// delivered_bytes, ...} via out-params on the writer caller's stack.
struct SimRun {
  std::uint64_t events = 0;
  double wall_s = 0;
  double delivered = 0;
  std::size_t routes = 0;
  std::size_t route_arena_bytes = 0;
  std::size_t endpoint_slots = 0;
  std::size_t pool_allocated = 0;
  std::size_t pool_slabs = 0;
  std::size_t pool_slab_bytes = 0;
  std::uint64_t heap_regrowths = 0;
};

/// Regrowths of the control queue and every shard's queue.
std::uint64_t queue_regrowths(core::SimHarness& harness) {
  std::uint64_t total = harness.events().regrowths();
  for (std::size_t s = 0; s < harness.shards().size(); ++s) {
    total += harness.shards().shard(s).events.regrowths();
  }
  return total;
}

SimRun run_permutation(int hosts, int planes, std::uint64_t bytes,
                       int sim_threads = 1) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  spec.hosts = hosts;
  spec.parallelism = planes;
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kShortestPlane;
  core::SimHarness harness(
      {.spec = spec, .policy = policy, .sim_threads = sim_threads});
  const int n = harness.net().num_hosts();
  const auto t0 = std::chrono::steady_clock::now();
  for (int h = 0; h < n; ++h) {
    harness.starter()(HostId{h}, HostId{(h + n / 2) % n}, bytes, 0, {});
  }
  harness.run();
  SimRun run;
  run.wall_s = seconds_since(t0);
  run.events = harness.dispatched();
  run.delivered =
      static_cast<double>(harness.factory().total_delivered_bytes());
  run.routes = harness.network().routes().num_routes();
  run.route_arena_bytes = harness.network().routes().arena_bytes();
  run.endpoint_slots = harness.factory().endpoint_slots();
  // The pool numbers come from the standalone forwarding section; here
  // only the event queues (control queue and every shard) are sampled.
  run.heap_regrowths = queue_regrowths(harness);
  return run;
}

/// One run of the rpc_sim cell.
struct RpcRun {
  int hosts = 0;
  std::uint64_t events = 0;
  double wall_s = 0;
  std::size_t completed = 0;
  std::uint64_t drops = 0;
  std::uint64_t timeouts = 0;
  std::size_t endpoint_slots = 0;
  std::uint64_t heap_regrowths = 0;
};

/// The rpc_sim cell: packet-rpc's closed loop (bench_fig11's RPCs) at 16
/// requested hosts — a 4-plane parallel-homogeneous Jellyfish (topology
/// seed 1) with shortest-plane routing, where each host keeps
/// `kRpcConcurrent` 100 kB requests with 1.5 kB replies outstanding for
/// `kRpcRounds` rounds each. Short flows with drops and RTO wake-ups, so
/// transport and event-queue work dominate. Times harness.run() only.
constexpr int kRpcHostsRequested = 16;
constexpr int kRpcPlanes = 4;
constexpr int kRpcConcurrent = 10;
constexpr int kRpcRounds = 8;
constexpr std::uint64_t kRpcRequestBytes = 100'000;
constexpr std::uint64_t kRpcResponseBytes = 1500;
constexpr std::uint64_t kRpcTrafficSeed = 1;

RpcRun run_rpc_cell() {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kJellyfish;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  spec.hosts = kRpcHostsRequested;
  spec.parallelism = kRpcPlanes;
  spec.seed = 1;
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kShortestPlane;
  core::SimHarness harness({.spec = spec, .policy = policy});
  const int hosts = harness.net().num_hosts();
  workload::ClosedLoopApp app(
      harness.starter(), harness.all_hosts(),
      {.concurrent_per_host = kRpcConcurrent,
       .response_bytes = kRpcResponseBytes,
       .rounds_per_worker = kRpcRounds,
       .seed = mix64(kRpcTrafficSeed)},
      [hosts](HostId src, Rng& rng) {
        return workload::random_destination(hosts, src, rng);
      },
      [](Rng&) { return kRpcRequestBytes; });
  app.start(0);
  const auto t0 = std::chrono::steady_clock::now();
  harness.run();
  RpcRun run;
  run.wall_s = seconds_since(t0);
  run.hosts = hosts;
  run.events = harness.dispatched();
  run.completed = app.completion_times_us().size();
  run.drops = harness.network().total_drops();
  run.timeouts = static_cast<std::uint64_t>(harness.logger().total_timeouts());
  run.endpoint_slots = harness.factory().endpoint_slots();
  run.heap_regrowths = queue_regrowths(harness);
  return run;
}

/// One run of a fluid cell on a warm route cache.
struct FluidRun {
  double wall_s = 0;
  std::int64_t full_solves = 0;
  std::int64_t warm_solves = 0;
  std::int64_t fast_paths = 0;
  std::uint64_t events = 0;
  std::uint64_t fct_digest = 0;
};

/// One of fsim-paper's 1 MB cells as exp::FluidEngine runs it: a
/// permutation with 10 us of start jitter, traffic drawn from
/// `traffic_seed`'s first trial. Times fluid.run() only.
FluidRun run_fluid_cell(const topo::ParallelNetwork& net,
                        const fsim::FsimConfig& config,
                        const std::shared_ptr<routing::RouteCache>& cache,
                        std::uint64_t bytes, std::uint64_t traffic_seed) {
  fsim::FluidSimulator fluid(net, config, cache);
  Rng rng(util::job_seed(traffic_seed, 0));
  const exp::WorkloadSpec wl;
  for (const auto& [src, dst] :
       workload::permutation_pairs(net.num_hosts(), rng)) {
    fluid.add_flow(
        {src, dst, bytes,
         static_cast<SimTime>(rng.next_below(
             static_cast<std::uint64_t>(wl.start_jitter)))});
  }
  const auto t0 = std::chrono::steady_clock::now();
  fluid.run();
  FluidRun run;
  run.wall_s = seconds_since(t0);
  run.full_solves = fluid.allocator().full_solves();
  run.warm_solves = fluid.allocator().warm_solves();
  run.fast_paths = fluid.allocator().fast_paths();
  run.events = fluid.events();
  run.fct_digest = 0x9E3779B97F4A7C15ULL;
  for (const double fct : fluid.fct_us()) {
    run.fct_digest = mix64(run.fct_digest ^ std::bit_cast<std::uint64_t>(fct));
  }
  return run;
}

/// One fluid section: fsim-paper's 1 MB `type` cell (Jellyfish, 686 hosts
/// requested, 4 planes, topology seed 1, traffic seed 1) under `policy`.
struct FluidCell {
  const char* name;
  topo::NetworkType type;
  core::PolicyConfig policy;

  [[nodiscard]] topo::NetworkSpec network() const {
    topo::NetworkSpec spec;
    spec.topo = topo::TopoKind::kJellyfish;
    spec.type = type;
    spec.hosts = 686;
    spec.parallelism = 4;
    spec.seed = 1;
    return spec;
  }
};

constexpr std::uint64_t kFluidFlowBytes = 1'000'000;
constexpr std::uint64_t kFluidTrafficSeed = 1;

/// What a fluid section measured (trivially copyable: it crosses a pipe).
struct FluidSection {
  bool ok = false;  // every timed repeat matched the warm-up run
  int hosts = 0;
  FluidRun counts;  // the warm-up run's
  int runs = 0;
  double wall_s_median = 0;
  double wall_s_min = 0;
  double wall_s_max = 0;
};
static_assert(std::is_trivially_copyable_v<FluidSection>);

/// One untimed run warms the route cache, so the timed runs cover only
/// the water-fill and the event loop; `repeat` timed runs give the median,
/// min and max.
FluidSection measure_fluid_cell(const FluidCell& cell, int repeat) {
  const fsim::FsimConfig config =
      exp::to_fsim_config(cell.policy, kFluidFlowBytes);
  const auto net = topo::build_network(cell.network());
  const auto cache = std::make_shared<routing::RouteCache>();
  FluidSection section;
  section.hosts = net.num_hosts();
  section.counts =
      run_fluid_cell(net, config, cache, kFluidFlowBytes, kFluidTrafficSeed);
  section.runs = std::max(1, repeat);
  std::vector<double> wall_s;
  for (int r = 0; r < section.runs; ++r) {
    const FluidRun run =
        run_fluid_cell(net, config, cache, kFluidFlowBytes, kFluidTrafficSeed);
    const FluidRun& warm = section.counts;
    if (run.full_solves != warm.full_solves ||
        run.warm_solves != warm.warm_solves ||
        run.fast_paths != warm.fast_paths || run.events != warm.events ||
        run.fct_digest != warm.fct_digest) {
      std::fprintf(stderr,
                   "%s: a repeat of the cell diverged from the first run "
                   "(determinism breach)\n",
                   cell.name);
      return section;
    }
    wall_s.push_back(run.wall_s);
  }
  std::sort(wall_s.begin(), wall_s.end());
  section.wall_s_median = wall_s[wall_s.size() / 2];
  section.wall_s_min = wall_s.front();
  section.wall_s_max = wall_s.back();
  section.ok = true;
  return section;
}

/// Measures every cell in a child forked before any other section runs,
/// and waits for it. Run after the packet sections in one process, the
/// fluid cells' times moved with the heap those sections left behind
/// (their small per-subflow blocks land wherever the free lists put them);
/// the child starts from the untouched heap, and leaves the packet
/// sections theirs. False when the child failed.
bool measure_fluid_cells(std::span<const FluidCell> cells, int repeat,
                         std::vector<FluidSection>& out) {
  out.assign(cells.size(), {});
  const std::size_t bytes = out.size() * sizeof(FluidSection);
  int fds[2];
  if (::pipe(fds) != 0) return false;
  const pid_t child = ::fork();
  if (child < 0) return false;
  if (child == 0) {
    ::close(fds[0]);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      out[i] = measure_fluid_cell(cells[i], repeat);
    }
    const auto* data = reinterpret_cast<const char*>(out.data());
    for (std::size_t done = 0; done < bytes;) {
      const ssize_t n = ::write(fds[1], data + done, bytes - done);
      if (n <= 0) ::_exit(1);
      done += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  auto* data = reinterpret_cast<char*>(out.data());
  std::size_t got = 0;
  while (got < bytes) {
    const ssize_t n = ::read(fds[0], data + got, bytes - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(child, &status, 0);
  return got == bytes && WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
         std::all_of(out.begin(), out.end(),
                     [](const FluidSection& s) { return s.ok; });
}

void write_fluid_section(exp::JsonWriter& w, const FluidCell& cell,
                         const FluidSection& section) {
  const topo::NetworkSpec spec = cell.network();
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64,
                section.counts.fct_digest);
  w.key(cell.name).begin_object();
  w.field("topo", "jellyfish");
  w.field("type", topo::to_string(spec.type));
  w.field("hosts_requested", spec.hosts);
  w.field("hosts", section.hosts);
  w.field("planes", spec.parallelism);
  w.field("topology_seed", spec.seed);
  w.field("routing", core::to_string(cell.policy.policy));
  w.field("k", cell.policy.k);  // paths per flow
  w.field("flow_bytes", kFluidFlowBytes);
  w.field("traffic_seed", kFluidTrafficSeed);
  w.field("host_cpus", static_cast<int>(std::thread::hardware_concurrency()));
  w.field("full_solves", section.counts.full_solves);
  w.field("warm_solves", section.counts.warm_solves);
  w.field("fast_paths", section.counts.fast_paths);
  w.field("events", section.counts.events);
  w.field("fct_digest", std::string(digest_hex));
  w.field("runs", section.runs);
  w.field("wall_s_median", section.wall_s_median);
  w.field("wall_s_min", section.wall_s_min);
  w.field("wall_s_max", section.wall_s_max);
  w.end_object();
}

int run_json_report(const Flags& flags) {
  flags.require_only({"json", "hosts", "planes", "bytes", "repeat", "mt-hosts",
                      "mt-planes", "mt-bytes"});
  const std::string path = flags.get("json", "-");
  const int hosts = flags.get_int("hosts", 16);
  const int planes = flags.get_int("planes", 2);
  const auto bytes =
      static_cast<std::uint64_t>(flags.get_int("bytes", 2'000'000));
  const int repeat = flags.get_int("repeat", 3);

  // Fluid water-fill under bench_fig9's routing: fsim-paper's 1 MB
  // parallel-homogeneous cell (KSP, k=4) and serial-low cell (one path per
  // flow, on the shortest plane). Measured first, in a child process;
  // written last.
  core::PolicyConfig ksp;
  ksp.policy = core::RoutingPolicy::kKspMultipath;
  ksp.k = 4;
  core::PolicyConfig shortest_plane;
  shortest_plane.policy = core::RoutingPolicy::kShortestPlane;
  shortest_plane.k = 1;
  const std::vector<FluidCell> fluid_cells = {
      {"fluid_solve", topo::NetworkType::kParallelHomogeneous, ksp},
      {"fluid_solve_serial", topo::NetworkType::kSerialLow, shortest_plane},
  };
  std::vector<FluidSection> fluid;
  if (!measure_fluid_cells(fluid_cells, repeat, fluid)) {
    std::fprintf(stderr, "fluid sections failed\n");
    return 1;
  }

  exp::JsonWriter w;
  w.begin_object();
  w.field("bench", "micro_sim");
  w.key("config").begin_object();
  w.field("hosts", hosts);
  w.field("planes", planes);
  w.field("bytes", bytes);
  w.field("repeat", repeat);
  w.end_object();

  // Raw data-plane loop: allocate -> queue -> pipe -> free, no transport.
  // Exercises the slab pool, intrusive FIFOs, and batched dispatch alone.
  {
    sim::EventQueue events;
    sim::PacketPool pool;
    struct Sink : sim::PacketSink {
      explicit Sink(sim::PacketPool& pool) : pool_(pool) {}
      void receive(sim::Packet& packet) override { pool_.free(&packet); }
      sim::PacketPool& pool_;
    } sink(pool);
    sim::Queue queue(events, pool, 100e9, 1 << 20);
    sim::Pipe pipe(events, units::kMicrosecond);
    sim::OwnedRoute route({&queue, &pipe, &sink});
    constexpr int kBurst = 256;
    constexpr int kIters = 8192;
    const auto t0 = std::chrono::steady_clock::now();
    for (int it = 0; it < kIters; ++it) {
      for (int i = 0; i < kBurst; ++i) {
        sim::Packet* p = pool.allocate();
        p->size_bytes = 1500;
        p->route = &route;
        p->next_hop = 0;
        p->forward();
      }
      events.run();
    }
    const double wall_s = seconds_since(t0);
    w.key("forwarding").begin_object();
    w.field("packets", static_cast<std::uint64_t>(kBurst) * kIters);
    w.field("wall_s", wall_s);
    w.field("packets_per_sec",
            wall_s > 0 ? kBurst * static_cast<double>(kIters) / wall_s : 0.0);
    w.field("pool_allocated", pool.allocated());
    w.field("pool_slabs", pool.slabs());
    w.field("pool_slab_bytes", pool.slab_bytes());
    w.end_object();
  }

  // End-to-end permutation scenario; best-of-`repeat` to damp scheduler
  // noise, since CI compares events_per_sec against the committed baseline.
  {
    SimRun best;
    for (int r = 0; r < repeat; ++r) {
      SimRun run = run_permutation(hosts, planes, bytes);
      if (best.wall_s == 0 ||
          static_cast<double>(run.events) / run.wall_s >
              static_cast<double>(best.events) / best.wall_s) {
        best = run;
      }
    }
    const double eps =
        best.wall_s > 0 ? static_cast<double>(best.events) / best.wall_s : 0.0;
    w.key("packet_sim").begin_object();
    w.field("events", best.events);
    w.field("wall_s", best.wall_s);
    w.field("events_per_sec", eps);
    w.field("bytes_per_event",
            best.events > 0 ? best.delivered /
                                  static_cast<double>(best.events)
                            : 0.0);
    w.field("delivered_bytes", best.delivered);
    w.field("routes_interned", best.routes);
    w.field("route_arena_bytes", best.route_arena_bytes);
    w.field("endpoint_slots", best.endpoint_slots);
    w.field("event_heap_regrowths", best.heap_regrowths);
    w.end_object();
  }

  // Sharded-engine scaling sweep: the same permutation scenario on a wider
  // multi-plane fabric, at shard worker counts 1/2/4/8. Dispatched-event
  // counts must agree across every row (the sharded engine's determinism
  // contract); speedup is relative to the 1-worker sharded row and is only
  // meaningful when host_cpus covers the worker count.
  {
    const int mt_hosts = flags.get_int("mt-hosts", 32);
    const int mt_planes = flags.get_int("mt-planes", 8);
    const auto mt_bytes =
        static_cast<std::uint64_t>(flags.get_int("mt-bytes", 2'000'000));
    const int worker_counts[] = {1, 2, 4, 8};
    w.key("packet_sim_mt").begin_object();
    w.field("hosts", mt_hosts);
    w.field("planes", mt_planes);
    w.field("bytes", mt_bytes);
    w.field("host_cpus",
            static_cast<int>(std::thread::hardware_concurrency()));
    w.key("rows").begin_array();
    std::uint64_t base_events = 0;
    double base_eps = 0.0;
    bool events_agree = true;
    for (const int workers : worker_counts) {
      SimRun best;
      for (int r = 0; r < repeat; ++r) {
        SimRun run = run_permutation(mt_hosts, mt_planes, mt_bytes, workers);
        if (best.wall_s == 0 ||
            static_cast<double>(run.events) / run.wall_s >
                static_cast<double>(best.events) / best.wall_s) {
          best = run;
        }
      }
      const double eps = best.wall_s > 0
                             ? static_cast<double>(best.events) / best.wall_s
                             : 0.0;
      if (workers == 1) {
        base_events = best.events;
        base_eps = eps;
      } else if (best.events != base_events) {
        events_agree = false;
      }
      w.begin_object();
      w.field("sim_threads", workers);
      w.field("events", best.events);
      w.field("wall_s", best.wall_s);
      w.field("events_per_sec", eps);
      w.field("speedup", base_eps > 0 ? eps / base_eps : 0.0);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!events_agree) {
      std::fprintf(stderr,
                   "packet_sim_mt: dispatched-event counts diverge across "
                   "sim_threads rows (determinism breach)\n");
      return 1;
    }
  }

  // Closed-loop RPCs (rpc_sim): the transport-bound scenario, best of
  // `repeat` runs like packet_sim. Its event count is deterministic.
  {
    RpcRun best;
    for (int r = 0; r < repeat; ++r) {
      RpcRun run = run_rpc_cell();
      if (best.wall_s != 0 && run.events != best.events) {
        std::fprintf(stderr,
                     "rpc_sim: a repeat of the cell dispatched other events "
                     "(determinism breach)\n");
        return 1;
      }
      if (best.wall_s == 0 || run.wall_s < best.wall_s) best = run;
    }
    w.key("rpc_sim").begin_object();
    w.field("topo", "jellyfish");
    w.field("type", "parallel-homogeneous");
    w.field("hosts_requested", kRpcHostsRequested);
    w.field("hosts", best.hosts);
    w.field("planes", kRpcPlanes);
    w.field("concurrent", kRpcConcurrent);
    w.field("rounds", kRpcRounds);
    w.field("request_bytes", kRpcRequestBytes);
    w.field("response_bytes", kRpcResponseBytes);
    w.field("rpcs", best.completed);
    w.field("drops", best.drops);
    w.field("timeouts", best.timeouts);
    w.field("events", best.events);
    w.field("wall_s", best.wall_s);
    w.field("events_per_sec",
            best.wall_s > 0 ? static_cast<double>(best.events) / best.wall_s
                            : 0.0);
    w.field("endpoint_slots", best.endpoint_slots);
    w.field("event_heap_regrowths", best.heap_regrowths);
    w.end_object();
  }

  for (std::size_t i = 0; i < fluid_cells.size(); ++i) {
    write_fluid_section(w, fluid_cells[i], fluid[i]);
  }

  w.end_object();
  const std::string text = w.str() + "\n";
  if (path == "-" || path == "1") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json", 6) == 0) {
      return run_json_report(Flags(argc, argv));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
