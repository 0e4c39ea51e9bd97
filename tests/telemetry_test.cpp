// Tests for src/telemetry and its wiring through the simulators: registry
// snapshot/merge semantics (including concurrent writers), the sampler's
// bounded-memory downsampling invariants, trace export well-formedness
// (Chrome JSON via a mini parser, binary via round-trip), equivalence of
// the harness sampler with the analysis::GoodputProbe it replaces, the
// run_until + finalize bookkeeping regression, and the determinism of
// telemetry-enabled experiment reports across thread counts and the
// PNET_ROUTE_CACHE switch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/recovery.hpp"
#include "core/harness.hpp"
#include "core/health_monitor.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "sim/faults.hpp"
#include "telemetry/telemetry.hpp"
#include "util/units.hpp"

namespace pnet {
namespace {

// --------------------------------------------------------------- registry

TEST(Registry, CountersSumAcrossShardsAndHandles) {
  telemetry::Registry registry;
  auto a = registry.counter("a");
  auto a_again = registry.counter("a");  // same slot, second handle
  auto b = registry.counter("b");
  a.add(3);
  a_again.inc();
  b.add(10);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("a"), 4u);
  EXPECT_EQ(snap.counters.at("b"), 10u);
  EXPECT_EQ(registry.num_counters(), 2u);
}

TEST(Registry, NullHandlesAreInert) {
  telemetry::Registry::Counter counter;
  telemetry::Registry::Gauge gauge;
  EXPECT_FALSE(static_cast<bool>(counter));
  EXPECT_FALSE(static_cast<bool>(gauge));
  counter.inc();  // must not crash
  gauge.set(1.0);
}

TEST(Registry, ConcurrentIncrementsAreExact) {
  telemetry::Registry registry;
  auto counter = registry.counter("hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.snapshot().counters.at("hits"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Registry, SnapshotMergeIsAssociative) {
  // Counters add and gauges are right-biased, so (a+b)+c == a+(b+c).
  using Snapshot = telemetry::Registry::Snapshot;
  const Snapshot a{{{"n", 1}, {"x", 5}}, {{"g", 1.0}}};
  const Snapshot b{{{"n", 2}}, {{"g", 2.0}, {"h", 7.0}}};
  const Snapshot c{{{"n", 4}, {"y", 9}}, {{"g", 3.0}}};

  Snapshot left = a;
  left.merge(b);
  left.merge(c);
  Snapshot bc = b;
  bc.merge(c);
  Snapshot right = a;
  right.merge(bc);

  EXPECT_EQ(left.counters, right.counters);
  EXPECT_EQ(left.gauges, right.gauges);
  EXPECT_EQ(left.counters.at("n"), 7u);
  EXPECT_DOUBLE_EQ(left.gauges.at("g"), 3.0);
}

// ---------------------------------------------------------------- sampler

TEST(Sampler, DisabledAndUnstartedNeverSample) {
  telemetry::Sampler off({.interval = 0});
  EXPECT_FALSE(off.enabled());
  off.start(0);
  EXPECT_EQ(off.next_sample_at(), telemetry::Sampler::kNoSample);

  telemetry::Sampler idle({.interval = 10});
  EXPECT_TRUE(idle.enabled());
  EXPECT_EQ(idle.next_sample_at(), telemetry::Sampler::kNoSample);
  idle.advance(1000);  // not started: no-op
  EXPECT_TRUE(idle.times().empty());
}

TEST(Sampler, GaugeAndRateCaptureOnTheGrid) {
  telemetry::Sampler sampler({.interval = units::kMillisecond});
  double gauge_value = 0.0;
  double bytes = 0.0;
  sampler.add_series("g", telemetry::Sampler::Kind::kGauge,
                     [&] { return gauge_value; });
  sampler.add_series("rate_bps", telemetry::Sampler::Kind::kRate,
                     [&] { return bytes; }, 8.0);
  sampler.start(0);
  EXPECT_EQ(sampler.next_sample_at(), units::kMillisecond);

  gauge_value = 42.0;
  bytes = 1000.0;  // 1000 bytes in the first 1 ms bucket
  sampler.advance(units::kMillisecond);
  gauge_value = 43.0;
  bytes = 1000.0;  // nothing new in the second bucket
  sampler.advance(2 * units::kMillisecond);

  ASSERT_EQ(sampler.times().size(), 2u);
  EXPECT_EQ(sampler.times()[0], units::kMillisecond);
  EXPECT_DOUBLE_EQ(sampler.values(0)[0], 42.0);
  EXPECT_DOUBLE_EQ(sampler.values(0)[1], 43.0);
  // 1000 bytes * 8 / 1e-3 s = 8 Mbit/s, then zero.
  EXPECT_DOUBLE_EQ(sampler.values(1)[0], 8e6);
  EXPECT_DOUBLE_EQ(sampler.values(1)[1], 0.0);
  EXPECT_EQ(sampler.name(1), "rate_bps");
}

TEST(Sampler, DownsamplingBoundsMemoryAndPreservesStructure) {
  constexpr SimTime kBase = 1000;
  constexpr std::size_t kCapacity = 8;
  telemetry::Sampler sampler({.interval = kBase, .capacity = kCapacity});
  double ticks = 0.0;  // gauge: grid index; rate probe: cumulative count
  sampler.add_series("idx", telemetry::Sampler::Kind::kGauge,
                     [&] { return ticks; });
  sampler.add_series("rate", telemetry::Sampler::Kind::kRate,
                     [&] { return ticks; });
  sampler.add_series("const", telemetry::Sampler::Kind::kGauge,
                     [] { return 42.0; });
  sampler.start(0);

  constexpr int kPoints = 1000;
  for (int i = 1; i <= kPoints; ++i) {
    ticks = i;
    sampler.advance(i * kBase);
  }

  // Bounded: never more than capacity points, and the interval is the base
  // spacing times a power of two.
  ASSERT_LE(sampler.times().size(), kCapacity);
  ASSERT_FALSE(sampler.times().empty());
  const SimTime interval = sampler.interval();
  ASSERT_GT(interval, 0);
  std::size_t rounds = 0;
  for (SimTime w = kBase; w < interval; w *= 2) ++rounds;
  EXPECT_EQ(kBase << rounds, interval);

  // Uniform grid ending at the last captured point.
  const auto& times = sampler.times();
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_EQ(times[i] - times[i - 1], interval);
  }
  EXPECT_EQ(times.back() % interval, 0);
  EXPECT_LE(times.back(), kPoints * kBase);
  EXPECT_GT(times.back() + interval, kPoints * kBase);

  // Gauge merging is mean-preserving over the captured points: a constant
  // gauge survives any number of rounds exactly, and a monotone gauge's
  // merged value stays inside its bucket's window.
  for (double v : sampler.values(2)) EXPECT_DOUBLE_EQ(v, 42.0);
  const auto& idx = sampler.values(0);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const double hi = static_cast<double>(times[i] / kBase);
    const double lo = hi - static_cast<double>(interval / kBase);
    EXPECT_GT(idx[i], lo) << i;
    EXPECT_LE(idx[i], hi) << i;
  }

  // The rate series integral (rate * bucket seconds) is preserved across
  // downsampling rounds: it must equal the total probe delta it covers.
  const auto& rate = sampler.values(1);
  double integral = 0.0;
  for (double r : rate) integral += r * units::to_seconds(interval);
  EXPECT_NEAR(integral, static_cast<double>(times.back() / kBase), 1e-6);
}

// ------------------------------------------------------------------ trace

// Minimal recursive-descent JSON validator (objects, arrays, strings,
// numbers, true/false/null) — enough to prove trace exports parse.
class MiniJson {
 public:
  explicit MiniJson(std::string_view text) : text_(text) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

telemetry::Trace sample_trace() {
  telemetry::Trace trace;
  trace.instant("cable_fail", 1'000'000);
  trace.instant("repath", 2'500'000, /*arg=*/7);
  trace.complete("flow", 0, 5'000'000, /*arg=*/1);
  trace.complete("flow", 500, 1'000'000'000'000);  // > 1 s, exercises carry
  return trace;
}

TEST(Trace, ChromeJsonIsWellFormed) {
  const auto trace = sample_trace();
  const std::string json = trace.chrome_json();
  EXPECT_TRUE(MiniJson(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Timestamps are exact integer-decimal microseconds: 2'500'000 ps is
  // 2.5 us and must print without float formatting.
  EXPECT_NE(json.find("\"ts\":2.500000"), std::string::npos);

  // An empty trace is still a valid document.
  EXPECT_TRUE(MiniJson(telemetry::Trace().chrome_json()).valid());
}

TEST(Trace, BinaryRoundTrips) {
  const auto trace = sample_trace();
  std::string blob;
  trace.append_binary(blob);
  telemetry::Trace parsed;
  ASSERT_TRUE(telemetry::Trace::parse_binary(blob, parsed));
  EXPECT_EQ(parsed.names(), trace.names());
  ASSERT_EQ(parsed.size(), trace.size());
  EXPECT_EQ(parsed.events(), trace.events());

  // Corrupt magic is rejected.
  blob[0] ^= 0x5A;
  telemetry::Trace bad;
  EXPECT_FALSE(telemetry::Trace::parse_binary(blob, bad));
}

TEST(Trace, DisabledTraceRecordsNothing) {
  telemetry::Trace trace(/*enabled=*/false);
  PNET_TRACE_INSTANT(&trace, "x", 100);
  PNET_TRACE_COMPLETE(&trace, "y", 0, 50);
  telemetry::Trace* null_trace = nullptr;
  PNET_TRACE_INSTANT(null_trace, "z", 1);  // null-safe
  EXPECT_EQ(trace.size(), 0u);
}

// ----------------------------------------------- harness integration

core::SimHarness make_harness(telemetry::Telemetry* telemetry) {
  topo::NetworkSpec spec;
  spec.topo = topo::TopoKind::kFatTree;
  spec.hosts = 16;
  spec.parallelism = 2;
  spec.type = topo::NetworkType::kParallelHomogeneous;
  core::PolicyConfig policy;
  policy.policy = core::RoutingPolicy::kRoundRobin;
  return core::SimHarness(
      {.spec = spec, .policy = policy, .telemetry = telemetry});
}

// The sampler's "goodput_bps" series must reproduce what the
// analysis::GoodputProbe it replaced measured: same grid, same per-bucket
// delta * 8 / seconds formula — through a plane flap, where the curve
// actually moves.
TEST(TelemetryHarness, SamplerMatchesGoodputProbeThroughAFault) {
  constexpr SimTime kBucket = units::kMillisecond;
  constexpr SimTime kHorizon = 30 * units::kMillisecond;

  const auto scenario = [&](core::SimHarness& h) {
    sim::FaultInjector injector(h.events(), h.network());
    sim::FaultPlan plan;
    plan.flap_plane(5 * units::kMillisecond, 10 * units::kMillisecond, 1);
    injector.arm(plan);
    for (int i = 0; i < 8; ++i) {
      h.starter()(HostId{i}, HostId{15 - i}, 1 * units::kGB, 0, {});
    }
    h.run_until(kHorizon);
  };

  telemetry::Telemetry tel({.sample_every = kBucket});
  auto with_sampler = make_harness(&tel);
  scenario(with_sampler);

  auto with_probe = make_harness(nullptr);
  analysis::GoodputProbe probe(
      with_probe.events(),
      [&with_probe] {
        return with_probe.factory().total_delivered_bytes();
      },
      kBucket, kHorizon);
  probe.start(0);
  scenario(with_probe);

  std::vector<telemetry::Sampler::Sample> goodput;
  tel.sampler.read("goodput_bps", 0, tel.sampler.times().size(),
                   [&goodput](const telemetry::Sampler::Sample& s) {
                     goodput.push_back(s);
                   });
  ASSERT_EQ(goodput.size(), probe.samples().size());
  ASSERT_GE(goodput.size(), 2u);
  for (std::size_t i = 0; i < goodput.size(); ++i) {
    EXPECT_EQ(goodput[i].t_end, probe.samples()[i].t_end) << i;
    const double expected = probe.samples()[i].value;
    EXPECT_NEAR(goodput[i].value, expected,
                1e-9 * std::max(1.0, std::abs(expected)))
        << i;
  }
  // The curve really dipped: plane 1 died with no failover wired.
  double lo = 1e300;
  double hi = 0.0;
  for (const telemetry::Sampler::Sample& s : goodput) {
    lo = std::min(lo, s.value);
    hi = std::max(hi, s.value);
  }
  EXPECT_LT(lo, hi * 0.9);
}

TEST(TelemetryHarness, CountersGaugesAndTraceCoverTheRun) {
  telemetry::Telemetry tel(
      {.sample_every = units::kMillisecond, .trace = true});
  auto h = make_harness(&tel);
  sim::FaultInjector injector(h.events(), h.network());
  sim::FaultPlan plan;
  plan.flap_plane(units::kMillisecond, units::kMillisecond, 1);
  injector.arm(plan);
  for (int i = 0; i < 4; ++i) {
    h.starter()(HostId{i}, HostId{15 - i}, 200'000, 0, {});
  }
  h.run();

  const auto snap = tel.registry.snapshot();
  EXPECT_EQ(snap.counters.at("flows_started"), 4u);
  EXPECT_EQ(snap.counters.at("flows_finished"), 4u);

  std::vector<std::string> names;
  for (const auto& event : tel.trace.events()) {
    names.push_back(tel.trace.names()[event.name]);
  }
  EXPECT_NE(std::count(names.begin(), names.end(), "flow_start"), 0);
  EXPECT_NE(std::count(names.begin(), names.end(), "flow"), 0);
  EXPECT_NE(std::count(names.begin(), names.end(), "plane_fail"), 0);
  EXPECT_NE(std::count(names.begin(), names.end(), "plane_recover"), 0);

  // Sampler series registered by the harness all share the grid.
  const auto n = tel.sampler.times().size();
  ASSERT_GT(n, 0u);
  for (std::size_t i = 0; i < tel.sampler.num_series(); ++i) {
    EXPECT_EQ(tel.sampler.values(i).size(), n) << tel.sampler.name(i);
  }
  for (const char* series :
       {"queue_bytes", "active_flows", "plane0_util_bps", "plane1_util_bps"}) {
    EXPECT_EQ(tel.sampler.read(series, 0, 1, [](const auto&) {}), 1u)
        << series;
  }
}

// ------------------------------------------------- run_until + finalize

TEST(TelemetryHarness, FinalizeLogsPartialRecordsForActiveFlows) {
  auto h = make_harness(nullptr);
  // One flow that finishes early, one bulk flow that cannot.
  h.starter()(HostId{0}, HostId{15}, 100'000, 0, {});
  h.starter()(HostId{1}, HostId{14}, 1 * units::kGB, 0, {});
  constexpr SimTime kDeadline = 10 * units::kMillisecond;
  h.run_until(kDeadline);

  // Regression: before finalize(), the logger silently under-reports the
  // still-active bulk flow.
  ASSERT_EQ(h.logger().records().size(), 1u);
  EXPECT_TRUE(h.logger().records()[0].completed);

  EXPECT_EQ(h.finalize(kDeadline), 1);
  ASSERT_EQ(h.logger().records().size(), 2u);
  const auto& partial = h.logger().records()[1];
  EXPECT_FALSE(partial.completed);
  EXPECT_EQ(partial.end, kDeadline);
  EXPECT_EQ(partial.bytes, 1 * units::kGB);
  EXPECT_GT(partial.delivered_bytes, 0u);
  EXPECT_LT(partial.delivered_bytes, partial.bytes);
  // Incomplete records carry no FCT.
  EXPECT_EQ(h.logger().fct_us().size(), 1u);
  // Finalize is idempotent.
  EXPECT_EQ(h.finalize(kDeadline), 0);
  EXPECT_EQ(h.logger().records().size(), 2u);
}

// ------------------------------------------------------ report determinism

std::string telemetry_report_json(int threads) {
  exp::ExperimentSpec spec;
  spec.name = "tm-cell";
  spec.engine = exp::EngineKind::kPacket;
  spec.topo.topo = topo::TopoKind::kFatTree;
  spec.topo.type = topo::NetworkType::kParallelHomogeneous;
  spec.topo.hosts = 8;
  spec.topo.parallelism = 2;
  spec.policy.policy = core::RoutingPolicy::kRoundRobin;
  spec.workload.flow_bytes = 200'000;
  spec.seed = 7;
  spec.trials = 3;

  exp::ExperimentSpec fsim = spec;
  fsim.name = "tm-fsim";
  fsim.engine = exp::EngineKind::kFsim;

  exp::Runner runner(threads);
  runner.set_telemetry(
      {.sample_every = 100 * units::kMicrosecond, .trace = true});
  exp::Report report("telemetry-determinism");
  for (auto& cell : runner.run({{spec, {}}, {fsim, {}}})) {
    report.add(std::move(cell));
  }
  return report.to_json(/*with_runtime=*/false);
}

TEST(TelemetryDeterminism, ReportIsByteIdenticalAcrossThreads) {
  const std::string one = telemetry_report_json(1);
  const std::string four = telemetry_report_json(4);
  EXPECT_EQ(one, four);
  // The telemetry block actually rode along.
  EXPECT_NE(one.find("\"telemetry\""), std::string::npos);
  EXPECT_NE(one.find("\"goodput_bps\""), std::string::npos);
  EXPECT_NE(one.find("\"flows_started\""), std::string::npos);
}

TEST(TelemetryDeterminism, SamplerSeriesUnchangedByRouteCacheSwitch) {
  // PNET_ROUTE_CACHE=off swaps the routing memoization layer out; the
  // physical simulation — and hence every sampler series — must not move.
  const std::string on = telemetry_report_json(2);
  ASSERT_EQ(setenv("PNET_ROUTE_CACHE", "off", 1), 0);
  const std::string off = telemetry_report_json(2);
  unsetenv("PNET_ROUTE_CACHE");
  EXPECT_EQ(on, off);
}

}  // namespace
}  // namespace pnet
