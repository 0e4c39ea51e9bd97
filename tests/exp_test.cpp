// Tests for the experiment layer (src/exp): spec validation, the
// deterministic JSON writer, and the runner's central guarantee — the
// timing-free report is a pure function of (spec, seed), byte-identical
// across repeated runs and across --threads values, for both engines.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "exp/json.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "serve/request.hpp"
#include "topo/parallel.hpp"
#include "util/parallel.hpp"
#include "util/units.hpp"

namespace pnet::exp {
namespace {

// ------------------------------------------------------------- validation

ExperimentSpec small_packet_spec(const std::string& name) {
  ExperimentSpec spec;
  spec.name = name;
  spec.engine = EngineKind::kPacket;
  spec.topo.topo = topo::TopoKind::kFatTree;
  spec.topo.type = topo::NetworkType::kParallelHomogeneous;
  spec.topo.hosts = 8;
  spec.topo.parallelism = 2;
  spec.policy.policy = core::RoutingPolicy::kRoundRobin;
  spec.workload.flow_bytes = 200'000;
  spec.workload.rounds = 1;
  spec.seed = 7;
  spec.trials = 2;
  return spec;
}

TEST(ExperimentSpec, ValidSpecPasses) {
  EXPECT_EQ(small_packet_spec("ok").validate(), "");
}

TEST(ExperimentSpec, RejectsBadFields) {
  auto spec = small_packet_spec("bad");
  spec.name = "";
  EXPECT_NE(spec.validate(), "");

  spec = small_packet_spec("bad");
  spec.trials = 0;
  EXPECT_NE(spec.validate(), "");

  spec = small_packet_spec("bad");
  spec.topo.hosts = 1;
  EXPECT_NE(spec.validate(), "");

  spec = small_packet_spec("bad");
  spec.workload.flow_bytes = 0;
  EXPECT_NE(spec.validate(), "");

  // A deadline across drained back-to-back rounds is meaningless.
  spec = small_packet_spec("bad");
  spec.workload.rounds = 2;
  spec.workload.round_gap = 0;
  spec.deadline = units::kMillisecond;
  EXPECT_NE(spec.validate(), "");

  // Values the simulator cannot take, now that they can come off the wire.
  const std::vector<std::function<void(ExperimentSpec&)>> unrunnable = {
      [](ExperimentSpec& s) { s.topo.host_latency = -1; },
      [](ExperimentSpec& s) { s.topo.fabric_latency = -1; },
      [](ExperimentSpec& s) { s.policy.allowed_planes = {2}; },
      [](ExperimentSpec& s) { s.policy.allowed_planes = {-1}; },
      [](ExperimentSpec& s) { s.policy.allowed_planes = {1, 0}; },
      [](ExperimentSpec& s) { s.sim.tcp.mss = 0; },
      [](ExperimentSpec& s) { s.sim.tcp.ack_size = 0; },
      [](ExperimentSpec& s) { s.sim.tcp.initial_window_packets = 0; },
      [](ExperimentSpec& s) { s.sim.tcp.recovery_burst_segments = 0; },
      [](ExperimentSpec& s) { s.sim.tcp.max_cwnd_bytes = 1000; },
      [](ExperimentSpec& s) { s.sim.tcp.min_rto = 0; },
      [](ExperimentSpec& s) { s.sim.tcp.initial_rto = 0; },
      [](ExperimentSpec& s) { s.sim.tcp.dctcp_gain_shift = -1; },
      [](ExperimentSpec& s) { s.sim.tcp.dctcp_gain_shift = 31; },
  };
  for (std::size_t i = 0; i < unrunnable.size(); ++i) {
    spec = small_packet_spec("bad");
    unrunnable[i](spec);
    EXPECT_NE(spec.validate(), "") << "case " << i;
  }
}

TEST(ExperimentSpec, CustomEngineSkipsEngineFieldChecks) {
  ExperimentSpec spec;
  spec.name = "custom";
  spec.engine = EngineKind::kCustom;
  spec.topo.hosts = 0;  // would fail for the built-in engines
  EXPECT_EQ(spec.validate(), "");
}

ExperimentSpec closed_loop_spec(const std::string& name) {
  auto spec = small_packet_spec(name);
  spec.workload.pattern = WorkloadSpec::Pattern::kClosedLoop;
  spec.workload.concurrent = 2;
  spec.workload.flow_bytes = 20'000;
  spec.workload.response_bytes = 1500;
  spec.workload.rounds = 3;
  return spec;
}

TEST(ExperimentSpec, ClosedLoopFieldsAreCheckedPerPattern) {
  EXPECT_EQ(closed_loop_spec("ok").validate(), "");

  auto spec = closed_loop_spec("fluid");
  spec.engine = EngineKind::kFsim;  // the fluid engine has no closed loop
  EXPECT_NE(spec.validate().find("engine=packet"), std::string::npos);

  spec = closed_loop_spec("bad");
  spec.workload.concurrent = 0;
  EXPECT_NE(spec.validate(), "");

  spec = closed_loop_spec("bad");
  spec.workload.round_gap = units::kMillisecond;
  EXPECT_NE(spec.validate(), "");

  // Closed-loop fields on a host-pair pattern would be silently ignored.
  spec = small_packet_spec("bad");
  spec.workload.trace = workload::Trace::kWebSearch;
  EXPECT_NE(spec.validate().find("closed_loop only"), std::string::npos);
  spec = small_packet_spec("bad");
  spec.workload.concurrent = 4;
  EXPECT_NE(spec.validate(), "");

  // A deadline cuts one closed loop; only back-to-back pattern rounds
  // reject it.
  spec = closed_loop_spec("cut");
  spec.deadline = units::kMillisecond;
  EXPECT_EQ(spec.validate(), "");
}

ExperimentSpec hadoop_spec(const std::string& name) {
  auto spec = small_packet_spec(name);
  spec.workload.pattern = WorkloadSpec::Pattern::kHadoop;
  spec.workload.flow_bytes = 100'000;  // blocks
  spec.workload.concurrent = 2;
  spec.workload.mappers = 3;
  spec.workload.reducers = 3;
  spec.workload.job_bytes = 900'000;
  return spec;
}

ExperimentSpec open_loop_spec(const std::string& name) {
  auto spec = small_packet_spec(name);
  spec.workload.pattern = WorkloadSpec::Pattern::kOpenLoop;
  spec.workload.flow_bytes = 20'000;
  spec.workload.rounds = 60;
  spec.workload.load = 0.5;
  spec.deadline = 100 * units::kMillisecond;
  return spec;
}

ExperimentSpec incast_spec(const std::string& name) {
  auto spec = small_packet_spec(name);
  spec.workload.pattern = WorkloadSpec::Pattern::kIncast;
  spec.workload.flow_bytes = 50'000;
  spec.workload.fan_in = 5;
  spec.deadline = 100 * units::kMillisecond;
  return spec;
}

/// Both kinds of fault on a two-plane cell of long flows: plane 1 down
/// from 100 us for 300 us, two cables at 1% loss from 200 us for 500 us.
ExperimentSpec fault_spec(const std::string& name) {
  auto spec = small_packet_spec(name);
  spec.trials = 1;
  spec.workload.flow_bytes = 10'000'000;
  spec.deadline = 50 * units::kMillisecond;
  spec.faults.outage = FaultSpec::Outage{.plane = 1,
                                         .at = 100 * units::kMicrosecond,
                                         .down_for = 300 * units::kMicrosecond};
  spec.faults.lossy =
      FaultSpec::LossyCables{.cables = 2,
                             .at = 200 * units::kMicrosecond,
                             .duration = 500 * units::kMicrosecond,
                             .loss = 0.01};
  return spec;
}

TEST(ExperimentSpec, FaultFieldsAreBounded) {
  using Edit = std::function<void(ExperimentSpec&)>;
  EXPECT_EQ(fault_spec("ok").validate(), "");
  const std::pair<Edit, const char*> broken[] = {
      {[](ExperimentSpec& s) { s.faults.outage->plane = 2; },
       "outage.plane must be in [0, planes"},
      {[](ExperimentSpec& s) { s.faults.outage->plane = -1; },
       "outage.plane must be in [0, planes"},
      // A serial network has one plane, whatever its parallelism.
      {[](ExperimentSpec& s) {
         s.topo.type = topo::NetworkType::kSerialHigh;
       },
       "outage.plane must be in [0, planes"},
      {[](ExperimentSpec& s) { s.faults.outage->at = -1; },
       "outage: at and for must be >= 0"},
      {[](ExperimentSpec& s) {
         s.faults.outage->at = std::numeric_limits<SimTime>::max();
       },
       "end in range"},
      {[](ExperimentSpec& s) {
         s.faults.outage->down_for = 0;
         s.deadline = 0;
       },
       "never recovers) needs a deadline"},
      {[](ExperimentSpec& s) { s.faults.lossy->cables = -1; },
       "lossy: cables, at and for must be >= 0"},
      {[](ExperimentSpec& s) { s.faults.lossy->duration = -1; },
       "lossy: cables, at and for must be >= 0"},
      // for = 0 keeps an outage down, but would make a lossy episode a
      // no-op, so it is rejected rather than given either meaning.
      {[](ExperimentSpec& s) { s.faults.lossy->duration = 0; },
       "lossy.for must be > 0"},
      {[](ExperimentSpec& s) { s.faults.lossy->loss = 1.5; },
       "loss must be in [0, 1]"},
      {[](ExperimentSpec& s) { s.faults.lossy->loss = -0.1; },
       "loss must be in [0, 1]"},
      {[](ExperimentSpec& s) { s.engine = EngineKind::kFsim; },
       "lossy needs engine=packet"},
      {[](ExperimentSpec& s) {
         s.engine = EngineKind::kFsim;
         s.faults.lossy.reset();
         s.workload.rounds = 2;
         s.deadline = 0;
       },
       "fluid engine need rounds = 1 or a round_gap"},
      // The pinned shape builds 8 x 1 hosts, fewer than the 16 asked for.
      {[](ExperimentSpec& s) {
         s.topo.topo = topo::TopoKind::kJellyfish;
         s.topo.hosts = 16;
         s.topo.jf_switches = 8;
         s.topo.jf_degree = 5;
         s.topo.jf_hosts_per_switch = 1;
       },
       "holds fewer than topo.hosts = 16 hosts"},
  };
  for (const auto& [edit, message] : broken) {
    ExperimentSpec spec = fault_spec("bad");
    edit(spec);
    EXPECT_NE(spec.validate().find(message), std::string::npos)
        << "'" << spec.validate() << "' lacks '" << message << "'";
  }
  // Overlapping fluid rounds share one simulator, and one clock.
  ExperimentSpec fluid = fault_spec("fluid");
  fluid.engine = EngineKind::kFsim;
  fluid.faults.lossy.reset();
  fluid.workload.rounds = 2;
  fluid.workload.round_gap = units::kMillisecond;
  EXPECT_EQ(fluid.validate(), "");
  // A pinned shape may hold more hosts than asked for; it builds them all.
  ExperimentSpec pinned = fault_spec("pinned");
  pinned.topo.topo = topo::TopoKind::kJellyfish;
  pinned.topo.jf_switches = 8;
  pinned.topo.jf_degree = 5;
  pinned.topo.jf_hosts_per_switch = 2;
  EXPECT_EQ(pinned.validate(), "");
}

TEST(ExperimentSpec, DriverFieldsAreCheckedPerPattern) {
  using Edit = std::function<void(ExperimentSpec&)>;
  const auto rejects = [](ExperimentSpec spec, const Edit& edit,
                          const std::string& message) {
    edit(spec);
    const std::string problem = spec.validate();
    EXPECT_NE(problem.find(message), std::string::npos)
        << spec.name << ": '" << problem << "' lacks '" << message << "'";
  };
  const ExperimentSpec drivers[] = {hadoop_spec("hadoop"),
                                    open_loop_spec("open"),
                                    incast_spec("incast")};
  for (const ExperimentSpec& spec : drivers) {
    EXPECT_EQ(spec.validate(), "") << spec.name;
    // No fluid driver, and no host-pair timing.
    rejects(spec, [](ExperimentSpec& s) { s.engine = EngineKind::kFsim; },
            "needs engine=packet");
    rejects(spec,
            [](ExperimentSpec& s) { s.workload.round_gap = 1'000'000; },
            "do not apply");
    rejects(spec, [](ExperimentSpec& s) { s.workload.start_jitter = 0; },
            "do not apply");
  }

  // A new field on any other pattern would be ignored by the trial.
  const ExperimentSpec others[] = {small_packet_spec("pair"),
                                   closed_loop_spec("rpc")};
  for (const ExperimentSpec& spec : others) {
    rejects(spec, [](ExperimentSpec& s) { s.workload.fan_in = 2; },
            "incast only");
    rejects(spec, [](ExperimentSpec& s) { s.workload.load = 0.5; },
            "open_loop only");
    rejects(spec, [](ExperimentSpec& s) { s.workload.mappers = 1; },
            "hadoop only");
    rejects(spec, [](ExperimentSpec& s) { s.workload.reducers = 1; },
            "hadoop only");
    rejects(spec, [](ExperimentSpec& s) { s.workload.job_bytes = 1; },
            "hadoop only");
  }
  rejects(hadoop_spec("h"), [](ExperimentSpec& s) { s.workload.fan_in = 2; },
          "incast only");
  rejects(incast_spec("i"), [](ExperimentSpec& s) { s.workload.load = 1.0; },
          "open_loop only");
  rejects(open_loop_spec("o"),
          [](ExperimentSpec& s) { s.workload.mappers = 2; }, "hadoop only");
  rejects(incast_spec("i"),
          [](ExperimentSpec& s) { s.workload.concurrent = 2; },
          "closed_loop and hadoop only");
  rejects(hadoop_spec("h"),
          [](ExperimentSpec& s) { s.workload.response_bytes = 10; },
          "closed_loop only");
  for (const ExperimentSpec& spec : {hadoop_spec("h"), incast_spec("i")}) {
    rejects(spec, [](ExperimentSpec& s) { s.workload.rounds = 2; },
            "rounds does not apply");
  }

  // Out-of-range values.
  const std::vector<std::pair<Edit, const char*>> hadoop_bad = {
      {[](ExperimentSpec& s) { s.workload.mappers = 0; }, "mappers"},
      {[](ExperimentSpec& s) { s.workload.reducers = -1; }, "mappers"},
      {[](ExperimentSpec& s) { s.workload.mappers = 6; }, "fit in"},
      {[](ExperimentSpec& s) { s.workload.job_bytes = 8; }, "job_bytes"},
      {[](ExperimentSpec& s) { s.workload.concurrent = 0; }, "concurrent"},
  };
  for (const auto& [edit, message] : hadoop_bad) {
    rejects(hadoop_spec("h"), edit, message);
  }
  const std::vector<std::pair<Edit, const char*>> open_bad = {
      {[](ExperimentSpec& s) { s.workload.load = 0.0; }, "load"},
      {[](ExperimentSpec& s) { s.workload.load = -0.5; }, "load"},
      {[](ExperimentSpec& s) { s.workload.load = 100.5; }, "load"},
      {[](ExperimentSpec& s) { s.workload.load = std::nan(""); }, "load"},
      // 8 hosts x 1e-9 x 100 Gb/s offer one 20 kB flow every 200 s.
      {[](ExperimentSpec& s) { s.workload.load = 1e-9; }, "per simulated"},
  };
  for (const auto& [edit, message] : open_bad) {
    rejects(open_loop_spec("o"), edit, message);
  }
  rejects(incast_spec("i"), [](ExperimentSpec& s) { s.workload.fan_in = 0; },
          "fan_in");
  rejects(incast_spec("i"), [](ExperimentSpec& s) { s.workload.fan_in = 8; },
          "fan_in");

  // The deadline rule of back-to-back rounds is the host-pair patterns':
  // an open loop's rounds are its flows.
  auto open = open_loop_spec("o");
  open.workload.rounds = 400;
  open.deadline = 5 * units::kSecond;
  EXPECT_EQ(open.validate(), "");
}

// Golden canonical JSON: growing WorkloadSpec must not move the bytes —
// and so the hashes behind checkpoint keys, pnet-serve cache keys and
// committed report spec blocks — of specs that predate a field.
TEST(ExperimentSpec, HostPairCanonicalJsonIsPinned) {
  ExperimentSpec plain;
  plain.name = "default";
  EXPECT_EQ(plain.canonical_json(),
            R"({"name":"default","engine":"packet","seed":1,"trials":1,)"
            R"("topo":{"kind":"fat-tree","type":"serial-low-bw",)"
            R"("hosts":128,"parallelism":4,"base_rate_gbps":100,"seed":1},)"
            R"("policy":{"policy":"round-robin","k":8,)"
            R"("ecmp_path_cap":64,"multipath_cutoff_bytes":100000000},)"
            R"("workload":{"pattern":"permutation","flow_bytes":1000000,)"
            R"("rounds":1,"start_jitter_us":10},)"
            R"("sim":{"queue_buffer_bytes":150000,"ecn_threshold_bytes":0,)"
            R"("priority_acks":false,"trim_to_header":false,)"
            R"("dctcp":false}})");

  // bench_fig9's cell shape (--hosts=16 --planes=2 --maxsize=1000000).
  ExperimentSpec fig9;
  fig9.name = "1MB/parallel-homogeneous";
  fig9.topo.topo = topo::TopoKind::kJellyfish;
  fig9.topo.type = topo::NetworkType::kParallelHomogeneous;
  fig9.topo.hosts = 16;
  fig9.topo.parallelism = 2;
  fig9.policy.policy = core::RoutingPolicy::kKspMultipath;
  fig9.policy.k = 2;
  fig9.sim.queue_buffer_bytes = 400 * 1500;
  fig9.workload.flow_bytes = 1'000'000;
  fig9.workload.rounds = 3;
  EXPECT_EQ(fig9.canonical_json(),
            R"({"name":"1MB/parallel-homogeneous","engine":"packet",)"
            R"("seed":1,"trials":1,"topo":{"kind":"jellyfish",)"
            R"("type":"parallel-homogeneous","hosts":16,"parallelism":2,)"
            R"("base_rate_gbps":100,"seed":1},)"
            R"("policy":{"policy":"ksp-multipath","k":2,)"
            R"("ecmp_path_cap":64,"multipath_cutoff_bytes":100000000},)"
            R"("workload":{"pattern":"permutation","flow_bytes":1000000,)"
            R"("rounds":3,"start_jitter_us":10},)"
            R"("sim":{"queue_buffer_bytes":600000,"ecn_threshold_bytes":0,)"
            R"("priority_acks":false,"trim_to_header":false,)"
            R"("dctcp":false}})");
}

TEST(ExperimentSpec, ClosedLoopFieldsSerializeOnlyForClosedLoop) {
  const std::string fixed = closed_loop_spec("rpc").canonical_json();
  EXPECT_NE(fixed.find(R"("workload":{"pattern":"closed_loop",)"
                       R"("flow_bytes":20000,"rounds":3,"concurrent":2,)"
                       R"("response_bytes":1500},)"),
            std::string::npos);
  // Trace draws replace flow_bytes, so it leaves the canonical form.
  auto traced = closed_loop_spec("trace");
  traced.workload.trace = workload::Trace::kDataMining;
  traced.workload.trace_cap_bytes = 8'000'000;
  EXPECT_NE(traced.canonical_json().find(
                R"("workload":{"pattern":"closed_loop","rounds":3,)"
                R"("concurrent":2,"response_bytes":1500,)"
                R"("trace":"datamining","trace_cap_bytes":8000000},)"),
            std::string::npos);
  for (const char* key : {"concurrent", "response_bytes", "trace"}) {
    EXPECT_EQ(small_packet_spec("p").canonical_json().find(key),
              std::string::npos)
        << key;
  }
}

// The driver benches' cell shapes at their default flags: bench_fig12,
// bench_ablation_load and bench_ablation_dctcp. Each pattern writes only
// the fields it reads.
TEST(ExperimentSpec, DriverCanonicalJsonIsPinned) {
  const auto bench_cell = [](const char* name, WorkloadSpec::Pattern pattern,
                             int hosts) {
    ExperimentSpec spec;
    spec.name = name;
    spec.topo.topo = topo::TopoKind::kJellyfish;
    spec.topo.type = topo::NetworkType::kParallelHomogeneous;
    spec.topo.hosts = hosts;
    spec.topo.seed = util::job_seed(1, 0);
    spec.policy.policy = core::RoutingPolicy::kShortestPlane;
    spec.workload.pattern = pattern;
    return spec;
  };
  const std::string topo =
      R"("topo":{"kind":"jellyfish","type":"parallel-homogeneous",)";
  const std::string seed = std::to_string(util::job_seed(1, 0));

  ExperimentSpec hadoop = bench_cell("hadoop", WorkloadSpec::Pattern::kHadoop,
                                     100);
  hadoop.sim.queue_buffer_bytes = 400 * 1500;
  hadoop.workload.flow_bytes = 32'000'000;
  hadoop.workload.concurrent = 4;
  hadoop.workload.mappers = 16;
  hadoop.workload.reducers = 16;
  hadoop.workload.job_bytes = 2'000'000'000;
  EXPECT_EQ(hadoop.canonical_json(),
            R"({"name":"hadoop","engine":"packet","seed":1,"trials":1,)" +
                topo + R"("hosts":100,"parallelism":4,"base_rate_gbps":100,)"
                R"("seed":)" + seed + "},"
                R"("policy":{"policy":"shortest-plane","k":8,)"
                R"("ecmp_path_cap":64,"multipath_cutoff_bytes":100000000},)"
                R"("workload":{"pattern":"hadoop","flow_bytes":32000000,)"
                R"("concurrent":4,"mappers":16,"reducers":16,)"
                R"("job_bytes":2000000000},)"
                R"("sim":{"queue_buffer_bytes":600000,)"
                R"("ecn_threshold_bytes":0,"priority_acks":false,)"
                R"("trim_to_header":false,"dctcp":false}})");

  ExperimentSpec open =
      bench_cell("open", WorkloadSpec::Pattern::kOpenLoop, 48);
  open.policy.policy = core::RoutingPolicy::kRoundRobin;
  open.sim.queue_buffer_bytes = 400 * 1500;
  open.workload.flow_bytes = 100'000;
  open.workload.rounds = 400;
  open.workload.load = 0.7;
  open.deadline = 5 * units::kSecond;
  EXPECT_EQ(open.canonical_json(),
            R"({"name":"open","engine":"packet","seed":1,"trials":1,)"
            R"("deadline_us":5000000,)" +
                topo + R"("hosts":48,"parallelism":4,"base_rate_gbps":100,)"
                R"("seed":)" + seed + "},"
                R"("policy":{"policy":"round-robin","k":8,)"
                R"("ecmp_path_cap":64,"multipath_cutoff_bytes":100000000},)"
                R"("workload":{"pattern":"open_loop","flow_bytes":100000,)"
                R"("rounds":400,"load":0.7},)"
                R"("sim":{"queue_buffer_bytes":600000,)"
                R"("ecn_threshold_bytes":0,"priority_acks":false,)"
                R"("trim_to_header":false,"dctcp":false}})");

  ExperimentSpec incast =
      bench_cell("incast", WorkloadSpec::Pattern::kIncast, 64);
  incast.policy.policy = core::RoutingPolicy::kRoundRobin;
  incast.sim.queue_buffer_bytes = 100 * 1500;
  incast.sim.ecn_threshold_bytes = 20 * 1500;
  incast.sim.tcp.dctcp = true;
  incast.workload.flow_bytes = 200'000;
  incast.workload.fan_in = 32;
  incast.deadline = 2 * units::kSecond;
  incast.trials = 5;
  EXPECT_EQ(incast.canonical_json(),
            R"({"name":"incast","engine":"packet","seed":1,"trials":5,)"
            R"("deadline_us":2000000,)" +
                topo + R"("hosts":64,"parallelism":4,"base_rate_gbps":100,)"
                R"("seed":)" + seed + "},"
                R"("policy":{"policy":"round-robin","k":8,)"
                R"("ecmp_path_cap":64,"multipath_cutoff_bytes":100000000},)"
                R"("workload":{"pattern":"incast","flow_bytes":200000,)"
                R"("fan_in":32},)"
                R"("sim":{"queue_buffer_bytes":150000,)"
                R"("ecn_threshold_bytes":30000,"priority_acks":false,)"
                R"("trim_to_header":false,"dctcp":true}})");
}

// The fault benches' cell shapes at their default flags:
// bench_ablation_controller's flap, bench_fault_recovery's timeline and
// bench_ablation_failover's outage that never recovers.
TEST(ExperimentSpec, FaultCanonicalJsonIsPinned) {
  const std::string host_local =
      R"("controller":{"mode":"host-local","cadence_us":1000,)"
      R"("detect_delay_us":1000,"imbalance_threshold":1.25,)"
      R"("max_repins_per_tick":8,"window":4},)";
  const std::string pinned =
      R"("hosts":16,"parallelism":4,"base_rate_gbps":100,"seed":)" +
      std::to_string(util::job_seed(1, 0)) +
      R"(,"jf_switches":8,"jf_degree":5,"jf_hosts_per_switch":2},)"
      R"("policy":{"policy":"round-robin","k":8,"ecmp_path_cap":64,)"
      R"("multipath_cutoff_bytes":100000000},)"
      R"("workload":{"pattern":"permutation","flow_bytes":100000000000,)"
      R"("rounds":1,"start_jitter_us":0},)";
  const std::string sim =
      R"("sim":{"queue_buffer_bytes":150000,"ecn_threshold_bytes":0,)"
      R"("priority_acks":false,"trim_to_header":false,"dctcp":false}})";
  const auto bulk_cell = [](const char* name, topo::NetworkType type,
                            SimTime deadline) {
    ExperimentSpec spec;
    spec.name = name;
    spec.topo.topo = topo::TopoKind::kJellyfish;
    spec.topo.type = type;
    spec.topo.hosts = 16;
    spec.topo.seed = util::job_seed(1, 0);
    spec.topo.jf_switches = 8;
    spec.topo.jf_degree = 5;
    spec.topo.jf_hosts_per_switch = 2;
    spec.workload.flow_bytes = 100 * units::kGB;
    spec.workload.start_jitter = 0;
    spec.deadline = deadline;
    spec.controller.mode = control::ControllerMode::kHostLocal;
    return spec;
  };

  ExperimentSpec flap =
      bulk_cell("flap/packet/host-local",
                topo::NetworkType::kParallelHomogeneous,
                60 * units::kMillisecond);
  flap.faults.outage =
      FaultSpec::Outage{.plane = 0,
                        .at = 20 * units::kMillisecond,
                        .down_for = 15 * units::kMillisecond};
  EXPECT_EQ(flap.canonical_json(),
            R"({"name":"flap/packet/host-local","engine":"packet",)"
            R"("seed":1,"trials":1,"deadline_us":60000,)" +
                host_local +
                R"("faults":{"outage":{"plane":0,"at_us":20000,)"
                R"("for_us":15000}},)"
                R"("topo":{"kind":"jellyfish",)"
                R"("type":"parallel-homogeneous",)" +
                pinned + sim);

  ExperimentSpec timeline =
      bulk_cell("timeline/serial-low", topo::NetworkType::kSerialLow,
                100 * units::kMillisecond);
  timeline.faults.outage =
      FaultSpec::Outage{.plane = 0,
                        .at = 40 * units::kMillisecond,
                        .down_for = 20 * units::kMillisecond};
  timeline.faults.lossy =
      FaultSpec::LossyCables{.cables = 3,
                             .at = 70 * units::kMillisecond,
                             .duration = 15 * units::kMillisecond,
                             .loss = 0.05};
  EXPECT_EQ(timeline.canonical_json(),
            R"({"name":"timeline/serial-low","engine":"packet",)"
            R"("seed":1,"trials":1,"deadline_us":100000,)" +
                host_local +
                R"("faults":{"outage":{"plane":0,"at_us":40000,)"
                R"("for_us":20000},"lossy":{"cables":3,"at_us":70000,)"
                R"("for_us":15000,"loss":0.05}},)"
                R"("topo":{"kind":"jellyfish","type":"serial-low-bw",)" +
                pinned + sim);

  ExperimentSpec unaware;
  unaware.name = "failure-unaware";
  unaware.topo.topo = topo::TopoKind::kJellyfish;
  unaware.topo.type = topo::NetworkType::kParallelHomogeneous;
  unaware.topo.hosts = 64;
  unaware.topo.seed = util::job_seed(1, 0);
  unaware.workload.pattern = WorkloadSpec::Pattern::kClosedLoop;
  unaware.workload.flow_bytes = 100'000;
  unaware.workload.concurrent = 2;
  unaware.workload.rounds = 20;
  unaware.deadline = 5 * units::kSecond;
  unaware.faults.outage = FaultSpec::Outage{.plane = 2};
  EXPECT_EQ(unaware.canonical_json(),
            R"({"name":"failure-unaware","engine":"packet","seed":1,)"
            R"("trials":1,"deadline_us":5000000,)"
            R"("faults":{"outage":{"plane":2,"at_us":0,"for_us":0}},)"
            R"("topo":{"kind":"jellyfish","type":"parallel-homogeneous",)"
            R"("hosts":64,"parallelism":4,"base_rate_gbps":100,"seed":)" +
                std::to_string(util::job_seed(1, 0)) +
                R"(},"policy":{"policy":"round-robin","k":8,)"
                R"("ecmp_path_cap":64,"multipath_cutoff_bytes":100000000},)"
                R"("workload":{"pattern":"closed_loop","flow_bytes":100000,)"
                R"("rounds":20,"concurrent":2,"response_bytes":0},)" +
                sim);
}

// Hash coverage: every field of every spec struct must reach the canonical
// JSON. The mutations below are written per struct member, independently
// of the field list in exp/spec.hpp; the list must carry each one into
// hash() and through pnet-serve's decoder unchanged.

// A member added to one of these structs changes its size (on the
// platform CI builds on): give it a line in the field list, a mutation
// below, and a bound in validate() if it comes off the wire.
#if defined(__x86_64__) && defined(__GLIBCXX__)
static_assert(sizeof(topo::NetworkSpec) == 64);
static_assert(sizeof(core::PolicyConfig) == 48);
static_assert(sizeof(WorkloadSpec) == 104);
static_assert(sizeof(sim::SimConfig) == 96);
static_assert(sizeof(sim::TcpParams) == 72);
static_assert(sizeof(control::ControllerConfig) == 40);
static_assert(sizeof(FaultSpec::Outage) == 24);
static_assert(sizeof(FaultSpec::LossyCables) == 32);
static_assert(sizeof(FaultSpec) == 72);
static_assert(sizeof(ExperimentSpec) == 488);
#endif

/// Counts the leaf fields the list names, nested structs included, and
/// the fields of an optional nested struct as if it were set.
struct LeafCounter {
  int leaves = 0;
  template <class M>
  void operator()(std::string_view, M&& member, bool = true) {
    using T = std::remove_cvref_t<M>;
    if constexpr (requires { pnet::exp::visit(*this, member); }) {
      pnet::exp::visit(*this, member);
    } else if constexpr (requires(typename T::value_type inner) {
                           pnet::exp::visit(*this, inner);
                         }) {
      typename T::value_type inner{};
      pnet::exp::visit(*this, inner);
    } else {
      ++leaves;
    }
  }
};

struct Mutation {
  const char* field;
  ExperimentSpec base;
  std::function<void(ExperimentSpec&)> mutate;
};

std::vector<Mutation> every_field_mutation() {
  const ExperimentSpec pair = small_packet_spec("pair");
  const ExperimentSpec rpc = closed_loop_spec("rpc");
  ExperimentSpec traced = closed_loop_spec("traced");
  traced.workload.trace = workload::Trace::kDataMining;
  ExperimentSpec ctl = small_packet_spec("ctl");
  ctl.controller.mode = control::ControllerMode::kCentralized;
  const ExperimentSpec hadoop = hadoop_spec("hadoop");
  const ExperimentSpec faulty = fault_spec("faulty");
  return {
      {"name", pair, [](ExperimentSpec& s) { s.name = "renamed"; }},
      {"engine", pair, [](ExperimentSpec& s) { s.engine = EngineKind::kFsim; }},
      {"seed", pair, [](ExperimentSpec& s) { s.seed = 99; }},
      {"trials", pair, [](ExperimentSpec& s) { s.trials = 5; }},
      {"deadline", pair,
       [](ExperimentSpec& s) { s.deadline = 3 * units::kMillisecond; }},
      // topo::NetworkSpec
      {"topo.topo", pair,
       [](ExperimentSpec& s) { s.topo.topo = topo::TopoKind::kXpander; }},
      {"topo.type", pair,
       [](ExperimentSpec& s) { s.topo.type = topo::NetworkType::kSerialHigh; }},
      {"topo.parallelism", pair,
       [](ExperimentSpec& s) { s.topo.parallelism = 3; }},
      {"topo.hosts", pair, [](ExperimentSpec& s) { s.topo.hosts = 12; }},
      {"topo.base_rate_bps", pair,
       [](ExperimentSpec& s) { s.topo.base_rate_bps = 12.5e9; }},
      {"topo.host_latency", pair,
       [](ExperimentSpec& s) { s.topo.host_latency = 700'000; }},
      {"topo.fabric_latency", pair,
       [](ExperimentSpec& s) { s.topo.fabric_latency = 2'500'000; }},
      {"topo.seed", pair, [](ExperimentSpec& s) { s.topo.seed = 4; }},
      {"topo.jf_switches", pair,
       [](ExperimentSpec& s) { s.topo.jf_switches = 6; }},
      {"topo.jf_degree", pair, [](ExperimentSpec& s) { s.topo.jf_degree = 3; }},
      {"topo.jf_hosts_per_switch", pair,
       [](ExperimentSpec& s) { s.topo.jf_hosts_per_switch = 2; }},
      // core::PolicyConfig
      {"policy.policy", pair,
       [](ExperimentSpec& s) { s.policy.policy = core::RoutingPolicy::kEcmp; }},
      {"policy.k", pair, [](ExperimentSpec& s) { s.policy.k = 3; }},
      {"policy.multipath_cutoff_bytes", pair,
       [](ExperimentSpec& s) { s.policy.multipath_cutoff_bytes = 5000; }},
      {"policy.ecmp_path_cap", pair,
       [](ExperimentSpec& s) { s.policy.ecmp_path_cap = 16; }},
      {"policy.coupling", pair,
       [](ExperimentSpec& s) {
         s.policy.coupling = sim::Coupling::kUncoupled;
       }},
      {"policy.allowed_planes", pair,
       [](ExperimentSpec& s) { s.policy.allowed_planes = {1}; }},
      // WorkloadSpec
      {"workload.pattern", pair,
       [](ExperimentSpec& s) {
         s.workload.pattern = WorkloadSpec::Pattern::kAllToAll;
       }},
      {"workload.flow_bytes", pair,
       [](ExperimentSpec& s) { s.workload.flow_bytes = 123'456; }},
      {"workload.rounds", pair,
       [](ExperimentSpec& s) { s.workload.rounds = 2; }},
      {"workload.start_jitter", pair,
       [](ExperimentSpec& s) { s.workload.start_jitter = 1'500'000; }},
      {"workload.round_gap", pair,
       [](ExperimentSpec& s) { s.workload.round_gap = units::kMillisecond; }},
      {"workload.concurrent", rpc,
       [](ExperimentSpec& s) { s.workload.concurrent = 5; }},
      {"workload.response_bytes", rpc,
       [](ExperimentSpec& s) { s.workload.response_bytes = 4000; }},
      {"workload.trace", traced,
       [](ExperimentSpec& s) { s.workload.trace = workload::Trace::kCache; }},
      {"workload.trace_cap_bytes", traced,
       [](ExperimentSpec& s) { s.workload.trace_cap_bytes = 8'000'000; }},
      {"workload.fan_in", incast_spec("incast"),
       [](ExperimentSpec& s) { s.workload.fan_in = 3; }},
      {"workload.mappers", hadoop,
       [](ExperimentSpec& s) { s.workload.mappers = 2; }},
      {"workload.reducers", hadoop,
       [](ExperimentSpec& s) { s.workload.reducers = 4; }},
      {"workload.job_bytes", hadoop,
       [](ExperimentSpec& s) { s.workload.job_bytes = 1'000'000; }},
      {"workload.load", open_loop_spec("open"),
       [](ExperimentSpec& s) { s.workload.load = 0.25; }},
      // sim::SimConfig and its TcpParams
      {"sim.queue_buffer_bytes", pair,
       [](ExperimentSpec& s) { s.sim.queue_buffer_bytes = 30'000; }},
      {"sim.ecn_threshold_bytes", pair,
       [](ExperimentSpec& s) { s.sim.ecn_threshold_bytes = 20'000; }},
      {"sim.priority_acks", pair,
       [](ExperimentSpec& s) { s.sim.priority_acks = true; }},
      {"sim.trim_to_header", pair,
       [](ExperimentSpec& s) { s.sim.trim_to_header = true; }},
      {"sim.tcp.mss", pair, [](ExperimentSpec& s) { s.sim.tcp.mss = 9000; }},
      {"sim.tcp.ack_size", pair,
       [](ExperimentSpec& s) { s.sim.tcp.ack_size = 64; }},
      {"sim.tcp.initial_window_packets", pair,
       [](ExperimentSpec& s) { s.sim.tcp.initial_window_packets = 4; }},
      {"sim.tcp.max_cwnd_bytes", pair,
       [](ExperimentSpec& s) { s.sim.tcp.max_cwnd_bytes = 500'000; }},
      {"sim.tcp.limited_ss_threshold", pair,
       [](ExperimentSpec& s) { s.sim.tcp.limited_ss_threshold = 45'000; }},
      {"sim.tcp.recovery_burst_segments", pair,
       [](ExperimentSpec& s) { s.sim.tcp.recovery_burst_segments = 1; }},
      {"sim.tcp.min_rto", pair,
       [](ExperimentSpec& s) {
         s.sim.tcp.min_rto = 200 * units::kMicrosecond;
       }},
      {"sim.tcp.initial_rto", pair,
       [](ExperimentSpec& s) { s.sim.tcp.initial_rto = units::kSecond; }},
      {"sim.tcp.path_suspect_threshold", pair,
       [](ExperimentSpec& s) { s.sim.tcp.path_suspect_threshold = 7; }},
      {"sim.tcp.dctcp", pair,
       [](ExperimentSpec& s) { s.sim.tcp.dctcp = true; }},
      {"sim.tcp.dctcp_gain_shift", pair,
       [](ExperimentSpec& s) { s.sim.tcp.dctcp_gain_shift = 0; }},
      {"sim.tcp.mptcp_staggered_join", pair,
       [](ExperimentSpec& s) { s.sim.tcp.mptcp_staggered_join = true; }},
      // control::ControllerConfig
      {"controller.mode", pair,
       [](ExperimentSpec& s) {
         s.controller.mode = control::ControllerMode::kHostLocal;
       }},
      {"controller.cadence", ctl,
       [](ExperimentSpec& s) { s.controller.cadence = 250'000'000; }},
      {"controller.detect_delay", ctl,
       [](ExperimentSpec& s) { s.controller.detect_delay = 0; }},
      {"controller.imbalance_threshold", ctl,
       [](ExperimentSpec& s) { s.controller.imbalance_threshold = 1.75; }},
      {"controller.max_repins_per_tick", ctl,
       [](ExperimentSpec& s) { s.controller.max_repins_per_tick = 0; }},
      {"controller.window", ctl,
       [](ExperimentSpec& s) { s.controller.window = 9; }},
      // FaultSpec
      {"faults.outage.plane", faulty,
       [](ExperimentSpec& s) { s.faults.outage->plane = 0; }},
      {"faults.outage.at", faulty,
       [](ExperimentSpec& s) { s.faults.outage->at = 0; }},
      {"faults.outage.down_for", faulty,
       [](ExperimentSpec& s) { s.faults.outage->down_for = 0; }},
      {"faults.lossy.cables", faulty,
       [](ExperimentSpec& s) { s.faults.lossy->cables = 0; }},
      {"faults.lossy.at", faulty,
       [](ExperimentSpec& s) { s.faults.lossy->at = 0; }},
      {"faults.lossy.duration", faulty,
       [](ExperimentSpec& s) {
         s.faults.lossy->duration = units::kMillisecond;
       }},
      {"faults.lossy.loss", faulty,
       [](ExperimentSpec& s) { s.faults.lossy->loss = 1.0; }},
  };
}

TEST(ExperimentSpec, EveryFieldMovesTheHash) {
  const std::vector<Mutation> mutations = every_field_mutation();
  LeafCounter counter;
  ExperimentSpec probe;
  visit(counter, probe);
  // One mutation per listed field (and, by the static_asserts above, per
  // struct member).
  EXPECT_EQ(counter.leaves, static_cast<int>(mutations.size()));
  for (const Mutation& m : mutations) {
    ExperimentSpec spec = m.base;
    m.mutate(spec);
    EXPECT_EQ(spec.validate(), "") << m.field;
    EXPECT_NE(spec.hash(), m.base.hash()) << m.field;
    serve::Request request;
    serve::RequestError error;
    const std::string canonical = spec.canonical_json();
    ASSERT_TRUE(serve::decode_request(canonical, request, error))
        << m.field << ": " << error.message;
    EXPECT_EQ(request.spec.canonical_json(), canonical) << m.field;
  }
}

TEST(Runner, ThrowsOnInvalidSpecAndMissingCustomFn) {
  Runner runner(1);
  auto bad = small_packet_spec("bad");
  bad.trials = 0;
  EXPECT_THROW(runner.run_cell({bad, {}}), std::invalid_argument);

  ExperimentSpec custom;
  custom.name = "no-fn";
  custom.engine = EngineKind::kCustom;
  EXPECT_THROW(runner.run_cell({custom, {}}), std::invalid_argument);
}

// ------------------------------------------------------------ JSON writer

TEST(JsonWriter, EmitsBalancedDocuments) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "a\"b\n");
  w.field("count", std::uint64_t{3});
  w.key("list").begin_array();
  w.value(1.5);
  w.value(false);
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"a\\\"b\\n\",\"count\":3,\"list\":[1.5,false]}");
}

TEST(JsonWriter, DoublesRoundTripShortest) {
  for (double v : {0.0, -1.0, 0.1, 1e300, 3.14159265358979,
                   123456789.123456789}) {
    const std::string s = json_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  // Integral doubles print without an exponent soup.
  EXPECT_EQ(json_double(42.0), "42");
}

// ------------------------------------------------------------ parallelism

TEST(ParallelMap, ResultsInJobOrderForAnyThreadCount) {
  std::vector<int> jobs;
  for (int i = 0; i < 100; ++i) jobs.push_back(i);
  const auto square = [](const int& v) { return v * v; };
  const auto one = util::parallel_map(jobs, square, 1);
  const auto four = util::parallel_map(jobs, square, 4);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one[99], 99 * 99);
}

TEST(ParallelMap, JobSeedIsStableAndDecorrelated) {
  EXPECT_EQ(util::job_seed(1, 0), util::job_seed(1, 0));
  EXPECT_NE(util::job_seed(1, 0), util::job_seed(1, 1));
  EXPECT_NE(util::job_seed(1, 0), util::job_seed(2, 0));
}

// ------------------------------------------------- determinism contract

std::string run_report_json(const std::vector<Cell>& cells,
                            int threads) {
  Runner runner(threads);
  Report report("determinism");
  for (auto& cell : runner.run(cells)) report.add(std::move(cell));
  return report.to_json(/*with_runtime=*/false);
}

TEST(Runner, PacketEngineReportIsByteIdenticalAcrossThreadsAndRuns) {
  auto spec = small_packet_spec("packet-cell");
  spec.trials = 3;
  const std::vector<Cell> cells = {{spec, {}}};
  const std::string one = run_report_json(cells, 1);
  EXPECT_EQ(one, run_report_json(cells, 4));
  EXPECT_EQ(one, run_report_json(cells, 1));
  EXPECT_NE(one.find("\"unfinished\":0"), std::string::npos);
}

TEST(Runner, FsimEngineReportIsByteIdenticalAcrossThreadsAndRuns) {
  auto spec = small_packet_spec("fsim-cell");
  spec.engine = EngineKind::kFsim;
  spec.trials = 4;
  spec.workload.rounds = 2;
  const std::vector<Cell> cells = {{spec, {}}};
  const std::string one = run_report_json(cells, 1);
  EXPECT_EQ(one, run_report_json(cells, 4));
  EXPECT_EQ(one, run_report_json(cells, 1));
}

TEST(Runner, MixedCellsMergeInSubmissionOrder) {
  auto packet = small_packet_spec("a-packet");
  auto fsim = small_packet_spec("b-fsim");
  fsim.engine = EngineKind::kFsim;
  ExperimentSpec custom;
  custom.name = "c-custom";
  custom.engine = EngineKind::kCustom;
  custom.trials = 2;
  custom.seed = 11;
  const TrialFn fn = [](const TrialContext& ctx) {
    TrialResult r;
    r.metrics["seed_lo"] = static_cast<double>(ctx.seed & 0xFFFF);
    r.flows_started = 1;
    r.flows_finished = 1;
    return r;
  };
  const std::vector<Cell> cells = {{packet, {}}, {fsim, {}},
                                           {custom, fn}};
  const auto results = Runner(4).run(cells);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].spec.name, "a-packet");
  EXPECT_EQ(results[1].spec.name, "b-fsim");
  EXPECT_EQ(results[2].spec.name, "c-custom");
  EXPECT_EQ(results[2].trials.size(), 2u);
}

TEST(Runner, CustomTrialsSeePerTrialJobSeeds) {
  ExperimentSpec spec;
  spec.name = "seeded";
  spec.engine = EngineKind::kCustom;
  spec.seed = 42;
  spec.trials = 3;
  std::atomic<int> calls{0};
  const TrialFn fn = [&calls](const TrialContext& ctx) {
    EXPECT_EQ(ctx.seed, util::job_seed(42, static_cast<std::uint64_t>(
                                               ctx.trial)));
    ++calls;
    TrialResult r;
    r.metrics["trial"] = ctx.trial;
    return r;
  };
  const auto cell = Runner(2).run_cell({spec, fn});
  EXPECT_EQ(calls.load(), 3);
  ASSERT_EQ(cell.trials.size(), 3u);
  // Trials land in trial order regardless of which worker ran them.
  for (int t = 0; t < 3; ++t) {
    EXPECT_DOUBLE_EQ(cell.trials[t].metrics.at("trial"), t);
  }
}

// ------------------------------------------------------ engine interface

TEST(Engine, MakeEngineResolvesEveryKind) {
  EXPECT_NE(make_engine(EngineKind::kPacket), nullptr);
  EXPECT_NE(make_engine(EngineKind::kFsim), nullptr);
  EXPECT_NE(make_engine(EngineKind::kCustom,
                        [](const TrialContext&) { return TrialResult{}; }),
            nullptr);
  EXPECT_THROW(make_engine(EngineKind::kCustom), std::invalid_argument);
  // A fn overrides a built-in kind (the historical Cell{spec, fn} rule).
  auto wrapped = make_engine(EngineKind::kPacket, [](const TrialContext&) {
    TrialResult r;
    r.metrics["wrapped"] = 1.0;
    return r;
  });
  const auto spec = small_packet_spec("wrapped");
  const auto cell = wrapped->run(spec, {});
  ASSERT_EQ(cell.trials.size(), 2u);
  EXPECT_DOUBLE_EQ(cell.trials[0].metrics.at("wrapped"), 1.0);
}

TEST(Engine, DirectRunMatchesRunnerDispatch) {
  // Engine::run (sequential) and the Runner's threaded fan-out must agree
  // for both built-in engines: same trials, same deterministic payloads.
  for (const auto kind : {EngineKind::kPacket, EngineKind::kFsim}) {
    auto spec = small_packet_spec(std::string("direct-") + to_string(kind));
    spec.engine = kind;
    spec.trials = 3;
    const auto direct = make_engine(kind)->run(spec, {});
    const auto via_runner = Runner(3).run_cell({spec, {}});
    ASSERT_EQ(direct.trials.size(), via_runner.trials.size());
    for (std::size_t t = 0; t < direct.trials.size(); ++t) {
      EXPECT_EQ(direct.trials[t].fct_us, via_runner.trials[t].fct_us);
      EXPECT_EQ(direct.trials[t].metrics, via_runner.trials[t].metrics);
      EXPECT_EQ(direct.trials[t].flows_finished,
                via_runner.trials[t].flows_finished);
    }
  }
}

TEST(Engine, TelemetryContextYieldsFoldedSeriesAndTrace) {
  auto spec = small_packet_spec("instrumented");
  spec.trials = 1;
  EngineContext ctx;
  ctx.telemetry = {.sample_every = 100 * units::kMicrosecond,
                   .trace = true};
  const auto cell = PacketEngine().run(spec, ctx);
  ASSERT_EQ(cell.trials.size(), 1u);
  const auto& trial = cell.trials[0];
  EXPECT_NE(trial.samples.find("tm/t_us"), trial.samples.end());
  EXPECT_NE(trial.samples.find("tm/goodput_bps"), trial.samples.end());
  EXPECT_NE(trial.metrics.find("tm/flows_started"), trial.metrics.end());
  ASSERT_NE(trial.trace, nullptr);
  EXPECT_GT(trial.trace->size(), 0u);

  // Disabled context = no telemetry keys, no trace (the zero-cost path).
  const auto plain = PacketEngine().run(spec, {});
  EXPECT_TRUE(plain.trials[0].samples.empty());
  EXPECT_EQ(plain.trials[0].trace, nullptr);
}

TEST(Engine, ClosedLoopTrialCompletesEveryRequest) {
  const auto spec = closed_loop_spec("rpc");
  const auto hosts = static_cast<std::uint64_t>(
      topo::build_network(spec.topo).num_hosts());
  const std::uint64_t requests = hosts * 2 * 3;  // workers x rounds
  const auto cell = PacketEngine().run(spec, {});
  ASSERT_EQ(cell.trials.size(), 2u);
  for (const auto& trial : cell.trials) {
    EXPECT_EQ(trial.flows_started, requests);
    EXPECT_EQ(trial.flows_finished, requests);
    EXPECT_EQ(trial.fct_us.size(), requests);
    // Every RPC delivered its request and its reply.
    EXPECT_DOUBLE_EQ(trial.delivered_bytes,
                     static_cast<double>(requests) * (20'000 + 1500));
    EXPECT_EQ(trial.metrics.count("drops"), 1u);
    EXPECT_EQ(trial.metrics.count("timeouts"), 1u);
  }

  // Trace draws replace flow_bytes: one-way requests, capped in size.
  auto traced = closed_loop_spec("trace");
  traced.trials = 1;
  traced.workload.response_bytes = 0;
  traced.workload.trace = workload::Trace::kWebSearch;
  traced.workload.trace_cap_bytes = 50'000;
  const auto trace_trial = PacketEngine().run(traced, {}).trials.at(0);
  EXPECT_EQ(trace_trial.flows_finished, requests);
  EXPECT_LE(trace_trial.delivered_bytes,
            static_cast<double>(requests) * 50'000);
  EXPECT_NE(trace_trial.delivered_bytes,
            static_cast<double>(requests) * 20'000);

  // The fluid engine has no closed loop; called directly, it says so.
  auto fluid = closed_loop_spec("fluid");
  fluid.engine = EngineKind::kFsim;
  EXPECT_THROW((void)FluidEngine().run(fluid, {}), std::invalid_argument);
}

TEST(Runner, ClosedLoopReportIsByteIdenticalAcrossThreadsAndRuns) {
  auto spec = closed_loop_spec("rpc-cell");
  spec.trials = 3;
  const std::vector<Cell> cells = {{spec, {}}};
  const std::string one = run_report_json(cells, 1);
  EXPECT_EQ(one, run_report_json(cells, 4));
  EXPECT_EQ(one, run_report_json(cells, 1));
  EXPECT_NE(one.find("\"unfinished\":0"), std::string::npos);
}

TEST(Engine, BackToBackRoundsKeepSamplingAndControlling) {
  // A drained run() stops the sampler and the control loop; the engine
  // re-arms both when the next back-to-back round starts, so their grids
  // cover every round, not just the first. Unequal grids make each driver
  // resume past points its sibling's last firing carried the clock over;
  // the auditor checks no event lands in the past.
  constexpr SimTime kSample = 100 * units::kMicrosecond;
  constexpr SimTime kCadence = 300 * units::kMicrosecond;
  auto spec = small_packet_spec("two-rounds");
  spec.trials = 1;
  spec.controller.mode = control::ControllerMode::kCentralized;
  spec.controller.cadence = kCadence;
  EngineContext ctx;
  ctx.telemetry.sample_every = kSample;
  ctx.audit = true;
  const auto one = PacketEngine().run(spec, ctx).trials.at(0);
  spec.workload.rounds = 2;
  const auto two = PacketEngine().run(spec, ctx).trials.at(0);

  // Round 1 of the two-round trial replays the one-round trial, so that
  // trial's end is where round 2 starts.
  const double round2_us = one.sim_seconds * 1e6;
  const double end_us = two.sim_seconds * 1e6;
  const double sample_us = units::to_microseconds(kSample);
  const double cadence_us = units::to_microseconds(kCadence);
  ASSERT_GT(end_us, round2_us + 4 * cadence_us);
  const auto& t_us = two.samples.at("tm/t_us");
  ASSERT_FALSE(t_us.empty());
  EXPECT_GT(t_us.back(), end_us - cadence_us);
  EXPECT_GE(static_cast<double>(t_us.size()), end_us / sample_us - 3);
  EXPECT_GE(two.metrics.at("ctl/ticks"), end_us / cadence_us - 1);
}

// The driver patterns run with every runner knob: telemetry, the
// centralized controller and shard threads all act on them, and their
// reports stay byte-identical at any --sim-threads value.
TEST(Runner, DriverPatternsHonourTelemetryControllerAndSimThreads) {
  std::vector<Cell> cells;
  for (ExperimentSpec spec : {hadoop_spec("hadoop"), open_loop_spec("open"),
                              incast_spec("incast")}) {
    spec.topo.parallelism = 4;
    spec.trials = 1;
    spec.controller.mode = control::ControllerMode::kCentralized;
    spec.controller.cadence = 200 * units::kMicrosecond;
    cells.push_back({spec, {}});
  }
  const auto report = [&cells](int sim_threads) {
    Runner runner(3);
    runner.set_telemetry({.sample_every = 50 * units::kMicrosecond});
    runner.set_sim_threads(sim_threads);
    Report report("drivers");
    for (CellResult& cell : runner.run(cells)) {
      EXPECT_EQ(cell.unfinished_flows(), 0u) << cell.spec.name;
      const TrialResult& trial = cell.trials.at(0);
      EXPECT_FALSE(trial.samples.at("tm/t_us").empty()) << cell.spec.name;
      EXPECT_GT(trial.metrics.at("tm/flows_started"), 0.0) << cell.spec.name;
      EXPECT_GT(trial.metrics.at("ctl/ticks"), 0.0) << cell.spec.name;
      report.add(std::move(cell));
    }
    return report.to_json(/*with_runtime=*/false);
  };
  const std::string inline_shards = report(1);
  EXPECT_EQ(inline_shards, report(4));
  EXPECT_NE(inline_shards.find("stage3_s"), std::string::npos);
  EXPECT_NE(inline_shards.find("timeouts"), std::string::npos);
}

TEST(Engine, DriverTrialsCountTheirFlows) {
  const auto hadoop = PacketEngine().run(hadoop_spec("hadoop"), {});
  for (const TrialResult& trial : hadoop.trials) {
    EXPECT_EQ(trial.flows_started, 1u);  // the job
    EXPECT_EQ(trial.flows_finished, 1u);
    EXPECT_TRUE(trial.fct_us.empty());
    for (const char* stage : {"stage1_s", "stage2_s", "stage3_s"}) {
      EXPECT_EQ(trial.samples.at(stage).size(), 3u) << stage;  // workers
    }
    // Read, shuffle and write each move the whole job.
    EXPECT_DOUBLE_EQ(trial.delivered_bytes, 3 * 900'000.0);
  }
  for (const TrialResult& trial :
       PacketEngine().run(open_loop_spec("open"), {}).trials) {
    EXPECT_EQ(trial.flows_started, 60u);
    EXPECT_EQ(trial.flows_finished, 60u);
    EXPECT_DOUBLE_EQ(trial.delivered_bytes, 60 * 20'000.0);
  }
  for (const TrialResult& trial :
       PacketEngine().run(incast_spec("incast"), {}).trials) {
    EXPECT_EQ(trial.flows_started, 5u);
    EXPECT_EQ(trial.fct_us.size(), 5u);
    EXPECT_EQ(trial.metrics.count("timeouts"), 1u);
    EXPECT_DOUBLE_EQ(trial.delivered_bytes, 5 * 50'000.0);
  }
}

// A plane outage (plus lossy cables on the packet engine) in each
// controller mode, on both engines: off hosts never learn of it,
// host-local hosts repath, and centralized adds the controller, which acts
// on the failure and on the recovery. The report is byte-identical at any
// sim_threads value and with the route cache off: no fault invalidates a
// cached route.
TEST(Runner, FaultCellsReactPerControllerMode) {
  using control::ControllerMode;
  std::vector<Cell> cells;
  for (const EngineKind engine : {EngineKind::kPacket, EngineKind::kFsim}) {
    for (const ControllerMode mode :
         {ControllerMode::kOff, ControllerMode::kHostLocal,
          ControllerMode::kCentralized}) {
      ExperimentSpec spec = fault_spec(std::string(to_string(engine)) + "/" +
                                       control::to_string(mode));
      spec.engine = engine;
      if (engine == EngineKind::kFsim) spec.faults.lossy.reset();
      spec.controller.mode = mode;
      spec.controller.cadence = 100 * units::kMicrosecond;
      spec.controller.detect_delay = 50 * units::kMicrosecond;
      cells.push_back({spec, {}});
    }
  }
  const auto run = [&cells](int sim_threads) {
    Runner runner(3);
    runner.set_telemetry({.sample_every = 50 * units::kMicrosecond});
    runner.set_sim_threads(sim_threads);
    return runner.run(cells);
  };
  const auto json = [](std::vector<CellResult> results) {
    Report report("faults");
    for (CellResult& cell : results) report.add(std::move(cell));
    return report.to_json(/*with_runtime=*/false);
  };
  const std::vector<CellResult> results = run(1);
  for (const CellResult& cell : results) {
    const std::string& name = cell.spec.name;
    const TrialResult& trial = cell.trials.at(0);
    const ControllerMode mode = cell.spec.controller.mode;
    EXPECT_EQ(cell.unfinished_flows(), 0u) << name;
    EXPECT_EQ(trial.metrics.count("plane_imbalance"),
              mode == ControllerMode::kOff ? 0u : 1u)
        << name;
    if (mode == ControllerMode::kCentralized) {
      EXPECT_EQ(trial.metrics.at("ctl/plane_events"), 2.0) << name;
    }
    if (cell.spec.engine == EngineKind::kFsim) {
      EXPECT_EQ(trial.metrics.count("repaths"), 0u) << name;
      continue;
    }
    if (mode == ControllerMode::kOff) {
      EXPECT_EQ(trial.metrics.at("repaths"), 0.0) << name;
      EXPECT_GT(trial.metrics.at("timeouts"), 0.0) << name;
      EXPECT_EQ(trial.metrics.at("detect_ms"), -1.0) << name;
    } else {
      EXPECT_GT(trial.metrics.at("repaths"), 0.0) << name;
      EXPECT_DOUBLE_EQ(trial.metrics.at("detect_ms"), 0.05) << name;
    }
    EXPECT_GT(trial.metrics.at("baseline_gbps"), 0.0) << name;
    EXPECT_EQ(trial.metrics.count("recover_ms"), 1u) << name;
  }
  const std::string inline_shards = json(results);
  EXPECT_EQ(inline_shards, json(run(4)));
  ASSERT_EQ(setenv("PNET_ROUTE_CACHE", "off", 1), 0);
  const std::string uncached = json(run(1));
  unsetenv("PNET_ROUTE_CACHE");
  EXPECT_EQ(inline_shards, uncached);
}

// bench_ablation_failover's unaware shape: requests hashed onto a plane
// that never recovers retry until the deadline, and those RTOs count;
// host-local hosts learn of the outage and finish every request.
TEST(Engine, StrandedFlowsCountTheirTimeouts) {
  ExperimentSpec spec = closed_loop_spec("unaware");
  spec.trials = 1;
  spec.deadline = 100 * units::kMillisecond;
  spec.faults.outage = FaultSpec::Outage{.plane = 1};
  const TrialResult unaware = PacketEngine().run(spec, {}).trials.at(0);
  EXPECT_LT(unaware.flows_finished, unaware.flows_started);
  EXPECT_GT(unaware.metrics.at("timeouts"), 0.0);
  EXPECT_EQ(unaware.metrics.at("repaths"), 0.0);

  spec.controller.mode = control::ControllerMode::kHostLocal;
  const TrialResult aware = PacketEngine().run(spec, {}).trials.at(0);
  EXPECT_EQ(aware.flows_finished, aware.flows_started);
}

// Checkpoint keys are spec hashes: two runs on one journal that differ
// only in a driver's workload field must not share results.
TEST(Runner, CheckpointKeysCoverDriverWorkloadFields) {
  const std::string journal =
      std::string(::testing::TempDir()) + "exp_test_driver_journal";
  std::remove(journal.c_str());
  Runner runner(2);
  runner.set_checkpoint(journal);
  auto few = open_loop_spec("open");
  few.trials = 1;
  few.workload.rounds = 20;
  auto many = few;
  many.workload.rounds = 40;
  auto narrow = incast_spec("incast");
  narrow.trials = 1;
  auto wide = narrow;
  wide.workload.fan_in = 7;
  const auto first = runner.run({{few, {}}, {narrow, {}}});
  const auto second = runner.run({{many, {}}, {wide, {}}});
  EXPECT_EQ(first[0].trials.at(0).flows_started, 20u);
  EXPECT_EQ(second[0].trials.at(0).flows_started, 40u);
  EXPECT_EQ(first[1].trials.at(0).flows_started, 5u);
  EXPECT_EQ(second[1].trials.at(0).flows_started, 7u);
  std::remove(journal.c_str());
}

// The fluid engine restarts its clock per back-to-back round, so no
// sample grid spans them: the Runner rejects the knob before any trial
// runs instead of writing a report without the telemetry it asked for.
TEST(Runner, RejectsFluidTelemetryAcrossBackToBackRounds) {
  auto spec = small_packet_spec("fluid-rounds");
  spec.engine = EngineKind::kFsim;
  spec.workload.rounds = 3;
  Runner runner(1);
  runner.set_telemetry({.sample_every = 10 * units::kMicrosecond});
  try {
    (void)runner.run_cell({spec, {}});
    ADD_FAILURE() << "telemetry across back-to-back rounds was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'fluid-rounds'"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("back-to-back"), std::string::npos);
  }
  EngineContext ctx;
  ctx.telemetry.trace = true;
  EXPECT_THROW((void)FluidEngine().run(spec, ctx), std::invalid_argument);

  // One round, or overlapping rounds, share one simulator and record it.
  spec.workload.rounds = 1;
  EXPECT_FALSE(
      runner.run_cell({spec, {}}).trials.at(0).samples.at("tm/t_us").empty());
  spec.workload.rounds = 2;
  spec.workload.round_gap = units::kMillisecond;
  EXPECT_FALSE(
      runner.run_cell({spec, {}}).trials.at(0).samples.at("tm/t_us").empty());
}

// ------------------------------------------------- unfinished accounting

TEST(Runner, DeadlineSurfacesUnfinishedFlowsInReport) {
  auto spec = small_packet_spec("cut-short");
  spec.trials = 1;
  spec.workload.flow_bytes = 50'000'000;  // cannot finish in 50 us
  spec.deadline = 50 * units::kMicrosecond;
  Runner runner(1);
  Report report("unfinished");
  report.add(runner.run_cell({spec, {}}));
  EXPECT_GT(report.total_unfinished_flows(), 0u);
  const std::string json = report.to_json(false);
  EXPECT_EQ(json.find("\"unfinished\":0"), std::string::npos);
  EXPECT_NE(json.find("\"unfinished\":"), std::string::npos);
}

// ---------------------------------------------------- shared route stores

// A route_cache_* counter the Runner put in a cell's runtime block.
double route_stat(const CellResult& cell, const std::string& key) {
  return cell.runtime.at("route_cache_" + key);
}

// Two fluid cells that differ only in flow size: they draw the same
// permutations on one topology, so they ask the same route queries.
std::vector<Cell> same_topology_cells() {
  auto big = small_packet_spec("big");
  big.engine = EngineKind::kFsim;
  big.topo.hosts = 16;
  auto small = big;
  small.name = "small";
  small.workload.flow_bytes = 20'000;
  return {{big, {}}, {small, {}}};
}

TEST(Runner, CellsOnOneTopologyShareOneRouteStore) {
  const std::vector<Cell> cells = same_topology_cells();
  const CellResult solo = Runner(1).run_cell(cells[0]);
  const double distinct = route_stat(solo, "misses");
  ASSERT_GT(distinct, 0.0);
  EXPECT_EQ(route_stat(solo, "entries"), distinct);

  // One thread runs the first cell's trials before the second's, so the
  // second finds every query it asks already computed.
  const auto both = Runner(1).run(cells);
  EXPECT_EQ(route_stat(both[0], "misses"), distinct);
  EXPECT_EQ(route_stat(both[1], "misses"), 0.0);
  EXPECT_EQ(route_stat(both[1], "hits"),
            route_stat(solo, "hits") + distinct);
  // Per-cell counters count what each cell's own misses added, so they
  // sum to the store's totals: one entry per distinct query.
  EXPECT_EQ(route_stat(both[0], "entries") + route_stat(both[1], "entries"),
            distinct);
  EXPECT_EQ(route_stat(both[1], "paths"), 0.0);
  EXPECT_EQ(route_stat(both[1], "heap_bytes"), 0.0);
  EXPECT_EQ(route_stat(both[0], "heap_bytes"),
            route_stat(solo, "heap_bytes"));
}

TEST(Runner, CellsOnOtherTopologiesGetTheirOwnRouteStore) {
  const std::vector<Cell> cells = same_topology_cells();
  // Each change touches one NetworkSpec field; a fat tree ignores its
  // seed, but the store key is the whole topology JSON all the same.
  const std::vector<std::function<void(topo::NetworkSpec&)>> changes = {
      [](topo::NetworkSpec& t) { t.seed += 1; },
      [](topo::NetworkSpec& t) { t.hosts = 8; },
      [](topo::NetworkSpec& t) { t.parallelism = 4; },
  };
  for (std::size_t i = 0; i < changes.size(); ++i) {
    Cell other = cells[1];
    changes[i](other.spec.topo);
    const CellResult solo = Runner(1).run_cell(other);
    const auto both = Runner(1).run({cells[0], other});
    EXPECT_EQ(route_stat(both[1], "misses"), route_stat(solo, "misses"))
        << "change " << i;
    EXPECT_EQ(route_stat(both[1], "hits"), route_stat(solo, "hits"))
        << "change " << i;
    EXPECT_EQ(route_stat(both[1], "entries"), route_stat(solo, "entries"))
        << "change " << i;
  }
}

TEST(Runner, SharedRouteStoresLeaveReportsByteIdentical) {
  std::vector<Cell> cells = same_topology_cells();
  // A packet cell on the same topology shares the store with the fluid
  // cells; one on another topology gets its own.
  auto packet = small_packet_spec("packet");
  packet.topo.hosts = 16;
  auto elsewhere = small_packet_spec("elsewhere");
  cells.push_back({packet, {}});
  cells.push_back({elsewhere, {}});

  const std::string shared = run_report_json(cells, 1);
  EXPECT_EQ(shared, run_report_json(cells, 4));
  Report alone("determinism");
  for (const Cell& cell : cells) alone.add(Runner(1).run_cell(cell));
  EXPECT_EQ(shared, alone.to_json(/*with_runtime=*/false));
  ASSERT_EQ(setenv("PNET_ROUTE_CACHE", "off", 1), 0);
  const std::string uncached = run_report_json(cells, 1);
  unsetenv("PNET_ROUTE_CACHE");
  EXPECT_EQ(shared, uncached);
}

TEST(Report, RuntimeBlockOnlyWithTiming) {
  auto spec = small_packet_spec("timing");
  spec.trials = 1;
  Runner runner(1);
  Report report("timing");
  report.add(runner.run_cell({spec, {}}));
  report.record_runtime(0.5, 2);
  EXPECT_EQ(report.to_json(false).find("runtime"), std::string::npos);
  EXPECT_NE(report.to_json(true).find("runtime"), std::string::npos);
}

}  // namespace
}  // namespace pnet::exp
