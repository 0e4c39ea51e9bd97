// The pnet-serve service boundary: the strict bounded JSON parser, the
// request decoder, the spec-hash result cache, and the Service pipeline
// (admission, dedup, deadlines, overload, drain). The hostile-input cases
// are the contract the daemon lives by: malformed, truncated, oversized,
// or adversarial spec JSON must produce a structured {"ok":false,...}
// reply — never a crash, never a silent coercion.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "exp/engine.hpp"
#include "exp/runner.hpp"
#include "serve/cache.hpp"
#include "serve/json_value.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"

namespace pnet::serve {
namespace {

// ------------------------------------------------------------- the parser

std::string parse_error(std::string_view text, ParseLimits limits = {}) {
  JsonValue out;
  std::string error;
  EXPECT_FALSE(parse_json(text, out, error, limits)) << text;
  return error;
}

JsonValue parse_ok(std::string_view text) {
  JsonValue out;
  std::string error;
  EXPECT_TRUE(parse_json(text, out, error)) << error;
  return out;
}

TEST(JsonParser, Scalars) {
  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_TRUE(parse_ok("true").boolean);
  EXPECT_FALSE(parse_ok("false").boolean);
  EXPECT_DOUBLE_EQ(parse_ok("-12.5e2").number, -1250.0);
  EXPECT_EQ(parse_ok("\"hi\\n\"").text, "hi\n");
}

TEST(JsonParser, NestedContainersKeepDocumentOrder) {
  const auto v = parse_ok(R"({"b":[1,2,{"c":true}],"a":null})");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.members.size(), 2u);
  EXPECT_EQ(v.members[0].first, "b");  // document order, not sorted
  EXPECT_EQ(v.members[1].first, "a");
  const JsonValue* b = v.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->items.size(), 3u);
  EXPECT_TRUE(b->items[2].find("c")->boolean);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParser, UnicodeEscapes) {
  EXPECT_EQ(parse_ok("\"\\u0041\"").text, "A");
  EXPECT_EQ(parse_ok("\"\\u00e9\"").text, "\xc3\xa9");          // é
  EXPECT_EQ(parse_ok("\"\\ud83d\\ude00\"").text,
            "\xf0\x9f\x98\x80");                                 // 😀
  EXPECT_NE(parse_error("\"\\ud83d\"").find("surrogate"),
            std::string::npos);  // unpaired high surrogate
  EXPECT_NE(parse_error("\"\\ude00\"").find("surrogate"),
            std::string::npos);  // lone low surrogate
}

TEST(JsonParser, RejectsNonFiniteNumbers) {
  // NaN/Infinity are not JSON tokens; 1e999 overflows to inf and must be
  // rejected rather than entering the spec as a non-finite double.
  EXPECT_FALSE(parse_error("NaN").empty());
  EXPECT_FALSE(parse_error("Infinity").empty());
  EXPECT_FALSE(parse_error("-Infinity").empty());
  EXPECT_NE(parse_error("1e999").find("non-finite"), std::string::npos);
  EXPECT_NE(parse_error("[-1e999]").find("non-finite"), std::string::npos);
}

TEST(JsonParser, RejectsMalformedGrammar) {
  EXPECT_FALSE(parse_error("").empty());
  EXPECT_FALSE(parse_error("{").empty());
  EXPECT_FALSE(parse_error("{\"a\":1,}").empty());
  EXPECT_FALSE(parse_error("[1,]").empty());
  EXPECT_FALSE(parse_error("01").empty());      // leading zero
  EXPECT_FALSE(parse_error(".5").empty());      // bare fraction
  EXPECT_FALSE(parse_error("1.").empty());      // trailing dot
  EXPECT_FALSE(parse_error("'single'").empty());
  EXPECT_FALSE(parse_error("{\"a\" 1}").empty());
  EXPECT_FALSE(parse_error("\"unterminated").empty());
  EXPECT_FALSE(parse_error("\"ctrl\x01char\"").empty());
  EXPECT_FALSE(parse_error("tru").empty());
}

TEST(JsonParser, RejectsTrailingGarbage) {
  EXPECT_NE(parse_error("{} {}").find("trailing"), std::string::npos);
  EXPECT_NE(parse_error("1 2").find("trailing"), std::string::npos);
}

TEST(JsonParser, RejectsDuplicateKeys) {
  EXPECT_NE(parse_error(R"({"a":1,"a":2})").find("duplicate"),
            std::string::npos);
}

TEST(JsonParser, EnforcesDepthAndByteLimits) {
  std::string deep;
  for (int i = 0; i < 40; ++i) deep += "[";
  EXPECT_NE(parse_error(deep).find("nesting too deep"), std::string::npos);
  // Depth exactly at the limit parses.
  std::string ok_deep;
  for (int i = 0; i < 32; ++i) ok_deep += "[";
  for (int i = 0; i < 32; ++i) ok_deep += "]";
  JsonValue out;
  std::string error;
  EXPECT_TRUE(parse_json(ok_deep, out, error)) << error;

  ParseLimits tight;
  tight.max_bytes = 8;
  EXPECT_FALSE(parse_error("[1,2,3,4,5]", tight).empty());
}

// ------------------------------------------------------------ the decoder

std::string decode_error(std::string_view line) {
  Request out;
  RequestError error;
  EXPECT_FALSE(decode_request(line, out, error)) << line;
  return error.code + ": " + error.message;
}

Request decode_ok(std::string_view line) {
  Request out;
  RequestError error;
  EXPECT_TRUE(decode_request(line, out, error))
      << error.code << ": " << error.message;
  return out;
}

constexpr const char kFullSpec[] =
    R"({"name":"t","engine":"fsim","seed":7,"trials":2,"deadline_us":1000,)"
    R"("topo":{"kind":"jellyfish","type":"parallel-homogeneous","hosts":32,)"
    R"("parallelism":4,"base_rate_gbps":40,"seed":9,"jf_switches":16,)"
    R"("jf_degree":8,"jf_hosts_per_switch":2},)"
    R"("policy":{"policy":"ksp-multipath","k":4,"ecmp_path_cap":32,)"
    R"("multipath_cutoff_bytes":50000},)"
    R"("workload":{"pattern":"all_to_all","flow_bytes":200000,"rounds":2,)"
    R"("start_jitter_us":5,"round_gap_us":100},)"
    R"("sim":{"queue_buffer_bytes":400000,"ecn_threshold_bytes":80000,)"
    R"("priority_acks":false,"trim_to_header":true,"dctcp":true}})";

TEST(RequestDecoder, FullSpecRoundTrip) {
  const Request request = decode_ok(kFullSpec);
  ASSERT_EQ(request.kind, Request::Kind::kRun);
  const exp::ExperimentSpec& s = request.spec;
  EXPECT_EQ(s.name, "t");
  EXPECT_EQ(s.engine, exp::EngineKind::kFsim);
  EXPECT_EQ(s.seed, 7u);
  EXPECT_EQ(s.trials, 2);
  EXPECT_EQ(s.deadline, 1000 * units::kMicrosecond);
  EXPECT_EQ(s.topo.topo, topo::TopoKind::kJellyfish);
  EXPECT_EQ(s.topo.type, topo::NetworkType::kParallelHomogeneous);
  EXPECT_EQ(s.topo.hosts, 32);
  EXPECT_EQ(s.topo.jf_degree, 8);
  EXPECT_EQ(s.policy.policy, core::RoutingPolicy::kKspMultipath);
  EXPECT_EQ(s.policy.k, 4);
  EXPECT_EQ(s.workload.pattern, exp::WorkloadSpec::Pattern::kAllToAll);
  EXPECT_EQ(s.workload.round_gap, 100 * units::kMicrosecond);
  EXPECT_TRUE(s.sim.trim_to_header);
  EXPECT_TRUE(s.sim.tcp.dctcp);

  // The wire format round-trips: decoding the canonical form yields the
  // same canonical form (the property the result cache keys on).
  const std::string canonical = s.canonical_json();
  EXPECT_EQ(decode_ok(canonical).spec.canonical_json(), canonical);
  EXPECT_EQ(s.hash(), exp::fnv1a(canonical));
}

TEST(RequestDecoder, MinimalSpecAndDefaults) {
  const Request request = decode_ok(R"({"name":"q"})");
  EXPECT_EQ(request.spec.trials, 1);
  EXPECT_EQ(request.spec.engine, exp::EngineKind::kPacket);
  EXPECT_DOUBLE_EQ(request.deadline_ms, 0.0);
}

TEST(RequestDecoder, DeadlineMsExtension) {
  EXPECT_DOUBLE_EQ(
      decode_ok(R"({"name":"q","deadline_ms":250.5})").deadline_ms, 250.5);
  EXPECT_NE(decode_error(R"({"name":"q","deadline_ms":-1})")
                .find("deadline_ms"),
            std::string::npos);
}

TEST(RequestDecoder, StatsRequest) {
  EXPECT_EQ(decode_ok(R"({"stats":true})").kind, Request::Kind::kStats);
  EXPECT_NE(decode_error(R"({"stats":false})").find("stats"),
            std::string::npos);
  EXPECT_NE(decode_error(R"({"stats":true,"name":"x"})")
                .find("no other fields"),
            std::string::npos);
}

TEST(RequestDecoder, RejectsUnknownFieldsAtEveryLevel) {
  EXPECT_NE(decode_error(R"({"name":"x","bogus":1})")
                .find("unknown field 'spec.bogus'"),
            std::string::npos);
  EXPECT_NE(decode_error(R"({"name":"x","topo":{"hosst":4}})")
                .find("unknown field 'topo.hosst'"),
            std::string::npos);
  EXPECT_NE(decode_error(R"({"name":"x","policy":{"kk":4}})")
                .find("unknown field 'policy.kk'"),
            std::string::npos);
  EXPECT_NE(decode_error(R"({"name":"x","workload":{"flows":1}})")
                .find("unknown field 'workload.flows'"),
            std::string::npos);
  EXPECT_NE(decode_error(R"({"name":"x","sim":{"dctpc":true}})")
                .find("unknown field 'sim.dctpc'"),
            std::string::npos);
}

TEST(RequestDecoder, RejectsWrongTypesAndRanges) {
  EXPECT_NE(decode_error(R"({"name":7})").find("must be a string"),
            std::string::npos);
  EXPECT_NE(decode_error(R"({"name":"x","trials":1.5})")
                .find("must be an integer"),
            std::string::npos);
  EXPECT_NE(decode_error(R"({"name":"x","trials":"3"})")
                .find("must be a number"),
            std::string::npos);
  // Integers past 2^53 would lose precision in the double parse tree.
  EXPECT_NE(decode_error(R"({"name":"x","seed":9007199254740994})")
                .find("out of range"),
            std::string::npos);
  EXPECT_NE(decode_error(R"({"name":"x","topo":{"hosts":4294967296}})")
                .find("out of range"),
            std::string::npos);
  EXPECT_NE(decode_error(R"({"name":"x","topo":7})")
                .find("must be an object"),
            std::string::npos);
  EXPECT_NE(
      decode_error(R"({"name":"x","workload":{"start_jitter_us":-1}})")
          .find("out of range"),
      std::string::npos);
}

TEST(RequestDecoder, RejectsBadEnumStrings) {
  EXPECT_NE(decode_error(R"({"name":"x","engine":"warp"})").find("engine"),
            std::string::npos);
  // "custom" is a valid EngineKind in-process but unservable on the wire.
  EXPECT_NE(
      decode_error(R"({"name":"x","engine":"custom"})").find("cannot be"),
      std::string::npos);
  EXPECT_NE(decode_error(R"({"name":"x","topo":{"kind":"torus"}})")
                .find("topo.kind"),
            std::string::npos);
  EXPECT_NE(decode_error(R"({"name":"x","policy":{"policy":"magic"}})")
                .find("policy.policy"),
            std::string::npos);
  EXPECT_NE(decode_error(R"({"name":"x","workload":{"pattern":"storm"}})")
                .find("workload.pattern"),
            std::string::npos);
}

TEST(RequestDecoder, RequiresName) {
  EXPECT_NE(decode_error(R"({"engine":"fsim"})").find("name"),
            std::string::npos);
  EXPECT_NE(decode_error("{}").find("name"), std::string::npos);
  EXPECT_NE(decode_error("[1,2]").find("object"), std::string::npos);
}

// ------------------------------------------- the wire round-trip property

/// A random spec over every field of the list: every pattern (the closed
/// loop with and without a trace) with the fields it writes, every engine
/// a client may name, every controller mode, non-default transport and
/// latency fields, non-integral rates, integers over the range their codec
/// accepts and times over the whole range the decoder accepts, small ones
/// included.
exp::ExperimentSpec random_spec(std::mt19937_64& rng) {
  const auto pick = [&](std::uint64_t n) { return rng() % n; };
  const auto coin = [&] { return (rng() & 1) != 0; };
  const auto any_int = [&] { return static_cast<int>(rng()); };
  const auto any_u32 = [&] { return static_cast<std::uint32_t>(rng()); };
  const auto any_u64 = [&] { return pick((std::uint64_t{1} << 53) + 1); };
  const auto any_time = [&] {
    return static_cast<SimTime>(pick(1'000'000'000'000'001ULL) >> pick(50));
  };
  const auto any_double = [&] {
    return std::ldexp(static_cast<double>(rng() >> 11),
                      static_cast<int>(pick(80)) - 70);
  };
  static const char* const kNames[] = {"q", "with \"quotes\"",
                                       "tab\tand\nnewline", "ctl\x01",
                                       "π/⊕", "back\\slash"};

  exp::ExperimentSpec s;
  s.name = kNames[pick(std::size(kNames))];
  s.engine = coin() ? exp::EngineKind::kPacket : exp::EngineKind::kFsim;
  s.seed = any_u64();
  s.trials = any_int();
  s.deadline = coin() ? any_time() : 0;

  s.controller.mode = static_cast<control::ControllerMode>(pick(3));
  s.controller.cadence = any_time();
  s.controller.detect_delay = any_time();
  s.controller.imbalance_threshold = any_double();
  s.controller.max_repins_per_tick = any_int();
  s.controller.window = any_int();

  s.topo.topo = static_cast<topo::TopoKind>(pick(3));
  s.topo.type = static_cast<topo::NetworkType>(pick(4));
  s.topo.hosts = any_int();
  s.topo.parallelism = any_int();
  s.topo.base_rate_bps = any_double() * 1e9;
  s.topo.seed = any_u64();
  if (coin()) {
    s.topo.jf_switches = any_int();
    s.topo.jf_degree = any_int();
    s.topo.jf_hosts_per_switch = any_int();
  }
  if (coin()) s.topo.host_latency = any_time();
  if (coin()) s.topo.fabric_latency = any_time();

  s.policy.policy = static_cast<core::RoutingPolicy>(pick(5));
  s.policy.k = any_int();
  s.policy.ecmp_path_cap = any_int();
  s.policy.multipath_cutoff_bytes = any_u64();
  if (coin()) s.policy.coupling = sim::Coupling::kUncoupled;
  for (std::uint64_t i = pick(4); i > 0; --i) {
    s.policy.allowed_planes.push_back(any_int());
  }

  using Pattern = exp::WorkloadSpec::Pattern;
  exp::WorkloadSpec& w = s.workload;
  w.pattern = static_cast<Pattern>(pick(7));
  w.flow_bytes = any_u64();
  w.rounds = any_int();
  if (w.host_pairs()) {
    w.start_jitter = any_time();
    w.round_gap = coin() ? any_time() : 0;
  }
  if (w.pattern == Pattern::kClosedLoop || w.pattern == Pattern::kHadoop) {
    w.concurrent = any_int();
  }
  if (w.pattern == Pattern::kClosedLoop) {
    w.response_bytes = coin() ? any_u64() : 0;
    if (coin()) {
      w.trace = static_cast<workload::Trace>(pick(5));
      w.trace_cap_bytes = coin() ? any_u64() : 0;
    }
  }
  if (w.pattern == Pattern::kOpenLoop) w.load = any_double();
  if (w.pattern == Pattern::kHadoop) {
    w.mappers = any_int();
    w.reducers = any_int();
    w.job_bytes = any_u64();
  }
  if (w.pattern == Pattern::kIncast) w.fan_in = any_int();

  if (coin()) {
    s.faults.outage = exp::FaultSpec::Outage{
        .plane = any_int(), .at = any_time(), .down_for = any_time()};
  }
  if (coin()) {
    s.faults.lossy = exp::FaultSpec::LossyCables{.cables = any_int(),
                                                 .at = any_time(),
                                                 .duration = any_time(),
                                                 .loss = any_double()};
  }

  s.sim.queue_buffer_bytes = any_u64();
  s.sim.ecn_threshold_bytes = any_u64();
  s.sim.priority_acks = coin();
  s.sim.trim_to_header = coin();
  sim::TcpParams& tcp = s.sim.tcp;
  tcp.dctcp = coin();
  if (coin()) {
    tcp.mss = any_u32();
    tcp.ack_size = any_u32();
    tcp.initial_window_packets = any_u32();
    tcp.max_cwnd_bytes = any_u64();
    tcp.limited_ss_threshold = any_u64();
    tcp.recovery_burst_segments = any_int();
    tcp.min_rto = any_time();
    tcp.initial_rto = any_time();
    tcp.path_suspect_threshold = any_int();
    tcp.dctcp_gain_shift = any_int();
    tcp.mptcp_staggered_join = coin();
  }
  return s;
}

TEST(RequestDecoder, CanonicalJsonRoundTripsForRandomSpecs) {
  std::mt19937_64 rng(0x5EC);  // seeded: the specs are reproducible
  for (int i = 0; i < 4000; ++i) {
    const std::string canonical = random_spec(rng).canonical_json();
    Request request;
    RequestError error;
    ASSERT_TRUE(decode_request(canonical, request, error))
        << "spec " << i << ": " << error.message << "\n" << canonical;
    ASSERT_EQ(request.spec.canonical_json(), canonical) << "spec " << i;
  }
}

TEST(RequestDecoder, TimesAreExactUpToTheirBound) {
  // The wire takes times up to 1e15 ps (1,000 simulated seconds), where
  // the microsecond codec still recovers every picosecond.
  for (const SimTime t : {SimTime{1}, SimTime{999'999}, SimTime{1'000'001},
                          SimTime{123'456'789'012'345},
                          SimTime{999'999'999'999'999},
                          SimTime{1'000'000'000'000'000}}) {
    exp::ExperimentSpec spec;
    spec.name = "t";
    spec.deadline = t;
    EXPECT_EQ(decode_ok(spec.canonical_json()).spec.deadline, t);
  }
  // Beyond it a canonical time could decode to its neighbour.
  EXPECT_NE(decode_error(R"({"name":"x","deadline_us":4380509305.548719})")
                .find("out of range"),
            std::string::npos);
}

// ------------------------------------------------------------- the cache

TEST(ResultCache, HitMissAndLruEviction) {
  ResultCache cache(100);
  const auto body = [](std::size_t n) {
    return std::make_shared<const std::string>(std::string(n, 'x'));
  };
  EXPECT_EQ(cache.find(1), nullptr);
  cache.insert(1, body(40));
  cache.insert(2, body(40));
  ASSERT_NE(cache.find(1), nullptr);  // refreshes 1: LRU order is now 1, 2
  cache.insert(3, body(40));          // evicts 2, the least recently used
  EXPECT_NE(cache.find(1), nullptr);
  EXPECT_EQ(cache.find(2), nullptr);
  EXPECT_NE(cache.find(3), nullptr);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 80u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.insertions, 3u);
}

TEST(ResultCache, OversizedBodyIsNotStored) {
  ResultCache cache(10);
  cache.insert(1, std::make_shared<const std::string>(std::string(11, 'x')));
  EXPECT_EQ(cache.find(1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCache, ZeroBudgetDisablesCaching) {
  ResultCache cache(0);
  cache.insert(1, std::make_shared<const std::string>("x"));
  EXPECT_EQ(cache.find(1), nullptr);
}

// ------------------------------------------------------------ the service

/// Instant stub engine: a deterministic TrialResult, no simulation. Lets
/// the Service tests exercise admission/cache/dedup without paying for
/// real topology builds.
class InstantEngine : public exp::Engine {
 public:
  exp::TrialResult run_trial(const exp::TrialContext& ctx) override {
    exp::TrialResult r;
    r.fct_us = {static_cast<double>(ctx.seed % 997)};
    r.flows_started = 1;
    r.flows_finished = 1;
    r.delivered_bytes = 100.0;
    r.sim_seconds = 0.001;
    r.events = 1;
    r.metrics["stub"] = 1.0;
    return r;
  }
};

/// Blocks every trial on a shared gate until the test releases it —
/// deterministic concurrency: the test knows a query is mid-engine.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> entered{0};

  void wait_inside() {
    ++entered;
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return open; });
  }
  void release() {
    const std::lock_guard<std::mutex> lock(mutex);
    open = true;
    cv.notify_all();
  }
  void await_entered(int n) {
    while (entered.load() < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

class GatedEngine : public exp::Engine {
 public:
  explicit GatedEngine(Gate* gate) : gate_(gate) {}
  exp::TrialResult run_trial(const exp::TrialContext& ctx) override {
    gate_->wait_inside();
    InstantEngine instant;
    return instant.run_trial(ctx);
  }

 private:
  Gate* gate_;
};

/// Spins until cancelled — the deadline-timeout path.
class SleepyEngine : public exp::Engine {
 public:
  exp::TrialResult run_trial(const exp::TrialContext& ctx) override {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (std::chrono::steady_clock::now() < give_up) {
      exp::throw_if_cancelled(ctx.cancel);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ADD_FAILURE() << "SleepyEngine was never cancelled";
    return {};
  }
};

ServiceOptions stub_options(int workers = 1) {
  ServiceOptions options;
  options.workers = workers;
  options.engine_factory = [](exp::EngineKind) {
    return std::make_unique<InstantEngine>();
  };
  return options;
}

std::uint64_t counter_of(Service& service, const std::string& name) {
  const auto snap = service.registry().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

constexpr const char kQuery[] = R"({"name":"q1","engine":"fsim"})";

TEST(Service, ServesAndCachesByteIdentically) {
  Service service(stub_options());
  const std::string first = service.handle_line(kQuery);
  EXPECT_EQ(first.rfind(R"({"ok":true)", 0), 0u) << first;
  const std::string second = service.handle_line(kQuery);
  EXPECT_EQ(first, second);
  EXPECT_EQ(counter_of(service, "engine_runs"), 1u);
  EXPECT_EQ(counter_of(service, "queries_ok"), 1u);  // the hit skipped it

  // The body names the spec hash of the decoded spec.
  Request request;
  RequestError error;
  ASSERT_TRUE(decode_request(kQuery, request, error));
  EXPECT_NE(first.find(hash_hex(request.spec.hash())), std::string::npos);
}

TEST(Service, ConcurrentIdenticalSpecsCoalesceOntoOneExecution) {
  Gate gate;
  ServiceOptions options;
  options.workers = 1;
  options.engine_factory = [&gate](exp::EngineKind) {
    return std::make_unique<GatedEngine>(&gate);
  };
  Service service(options);

  std::string body_a;
  std::thread leader([&] { body_a = service.handle_line(kQuery); });
  gate.await_entered(1);  // the leader is mid-engine

  std::string body_b;
  std::thread follower([&] { body_b = service.handle_line(kQuery); });
  // The follower must register its join before we release the engine.
  while (counter_of(service, "dedup_joins") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  gate.release();
  leader.join();
  follower.join();

  // The ISSUE acceptance criterion: exactly one engine execution, one
  // dedup join, byte-identical responses.
  EXPECT_EQ(body_a, body_b);
  EXPECT_EQ(gate.entered.load(), 1);
  EXPECT_EQ(counter_of(service, "engine_runs"), 1u);
  EXPECT_EQ(counter_of(service, "dedup_joins"), 1u);
}

TEST(Service, DeadlineReturnsStructuredTimeoutAndServerKeepsServing) {
  ServiceOptions options;
  options.workers = 1;
  int calls = 0;
  options.engine_factory = [&calls](exp::EngineKind) -> std::unique_ptr<exp::Engine> {
    // First engine (packet slot) sleeps; second (fsim slot) is instant.
    if (++calls == 1) return std::make_unique<SleepyEngine>();
    return std::make_unique<InstantEngine>();
  };
  Service service(options);

  const std::string timed_out = service.handle_line(
      R"({"name":"slow","engine":"packet","deadline_ms":50})");
  EXPECT_NE(timed_out.find(R"("ok":false)"), std::string::npos);
  EXPECT_NE(timed_out.find(R"("kind":"timeout")"), std::string::npos);
  EXPECT_NE(timed_out.find(R"("retryable":true)"), std::string::npos);
  EXPECT_EQ(counter_of(service, "errors_timeout"), 1u);

  // Timeouts are wall-clock dependent — never cached.
  EXPECT_EQ(service.handle_line(R"({"stats":true})")
                .find(R"("timeout")"),
            std::string::npos);

  // The worker survived; an instant query on the other engine succeeds.
  const std::string ok = service.handle_line(kQuery);
  EXPECT_EQ(ok.rfind(R"({"ok":true)", 0), 0u) << ok;
}

TEST(Service, OverloadRejectsWithRetryableError) {
  Gate gate;
  ServiceOptions options;
  options.workers = 1;
  options.queue_limit = 1;
  options.engine_factory = [&gate](exp::EngineKind) {
    return std::make_unique<GatedEngine>(&gate);
  };
  Service service(options);

  // Distinct specs so nothing coalesces: one executing, one queued, the
  // third must bounce.
  std::thread running(
      [&] { (void)service.handle_line(R"({"name":"a","engine":"fsim"})"); });
  gate.await_entered(1);
  std::thread queued(
      [&] { (void)service.handle_line(R"({"name":"b","engine":"fsim"})"); });
  while (counter_of(service, "queries_total") < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The queued query may still be between counters; poll until the queue
  // really holds it.
  std::string rejected;
  for (int i = 0; i < 2000; ++i) {
    rejected = service.handle_line(R"({"name":"c","engine":"fsim"})");
    if (rejected.find(R"("kind":"overloaded")") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_NE(rejected.find(R"("kind":"overloaded")"), std::string::npos)
      << rejected;
  EXPECT_NE(rejected.find(R"("retryable":true)"), std::string::npos);

  gate.release();
  running.join();
  queued.join();
}

TEST(Service, DrainRejectsNewRunsButAnswersStats) {
  Service service(stub_options());
  const std::string warm = service.handle_line(kQuery);
  service.drain();
  EXPECT_TRUE(service.draining());

  const std::string rejected =
      service.handle_line(R"({"name":"late","engine":"fsim"})");
  EXPECT_NE(rejected.find(R"("kind":"draining")"), std::string::npos);
  EXPECT_NE(rejected.find(R"("retryable":true)"), std::string::npos);

  // Stats keep answering during/after drain (the final telemetry flush).
  const std::string stats = service.handle_line(R"({"stats":true})");
  EXPECT_NE(stats.find(R"("draining":true)"), std::string::npos);

  // Cached results still serve — no engine needed.
  EXPECT_EQ(service.handle_line(kQuery), warm);
}

TEST(Service, ResourceCapsRejectBeforeExecution) {
  ServiceOptions options = stub_options();
  options.max_hosts = 64;
  options.max_trials = 2;
  Service service(options);
  const std::string too_big =
      service.handle_line(R"({"name":"big","topo":{"hosts":4096}})");
  EXPECT_NE(too_big.find(R"("kind":"invalid_spec")"), std::string::npos);
  EXPECT_NE(too_big.find("cap"), std::string::npos);
  const std::string too_many =
      service.handle_line(R"({"name":"many","trials":50})");
  EXPECT_NE(too_many.find("cap"), std::string::npos);
  EXPECT_EQ(counter_of(service, "engine_runs"), 0u);
}

TEST(Service, TopologySizeCapBoundsPlanesAndSwitches) {
  // max_hosts 64 caps a query at 32 x 64 = 2048 built nodes. A 16-host fat
  // tree plane has 36 nodes, a 16-switch Jellyfish with 2 hosts each 48.
  ServiceOptions options = stub_options();
  options.max_hosts = 64;
  Service service(options);
  const std::string planes = service.handle_line(
      R"({"name":"planes","topo":{"hosts":16,)"
      R"("type":"parallel-homogeneous","parallelism":1000000}})");
  EXPECT_NE(planes.find(R"("kind":"invalid_spec")"), std::string::npos);
  EXPECT_NE(planes.find("1000000 planes x 36 nodes"), std::string::npos)
      << planes;
  const std::string switches = service.handle_line(
      R"({"name":"switches","topo":{"kind":"jellyfish","hosts":16,)"
      R"("jf_switches":1000000,"jf_degree":4,"jf_hosts_per_switch":2}})");
  EXPECT_NE(switches.find(R"("kind":"invalid_spec")"), std::string::npos);
  EXPECT_NE(switches.find("3000000 nodes"), std::string::npos) << switches;
  EXPECT_EQ(counter_of(service, "engine_runs"), 0u);

  // The same shapes within the cap run: 56 fat-tree planes, 42 switches.
  const std::string fits = service.handle_line(
      R"({"name":"fits","topo":{"hosts":16,)"
      R"("type":"parallel-homogeneous","parallelism":56}})");
  EXPECT_EQ(fits.rfind(R"({"ok":true)", 0), 0u) << fits;
  const std::string fits_jf = service.handle_line(
      R"({"name":"fits_jf","topo":{"kind":"jellyfish","hosts":16,)"
      R"("jf_switches":42,"jf_degree":4,"jf_hosts_per_switch":2}})");
  EXPECT_EQ(fits_jf.rfind(R"({"ok":true)", 0), 0u) << fits_jf;
  EXPECT_EQ(counter_of(service, "engine_runs"), 2u);
}

TEST(Service, OversizedRequestRejectedBeforeParsing) {
  ServiceOptions options = stub_options();
  options.max_request_bytes = 128;
  Service service(options);
  const std::string big(4096, 'x');
  const std::string rejected = service.handle_line(big);
  EXPECT_NE(rejected.find(R"("kind":"oversized")"), std::string::npos);
  EXPECT_EQ(counter_of(service, "rejected_oversized"), 1u);
}

TEST(Service, SemanticallyInvalidSpecIsStructurallyRejected) {
  Service service(stub_options());
  // Parses and decodes fine; ExperimentSpec::validate() must veto it.
  const std::string invalid =
      service.handle_line(R"({"name":"bad","topo":{"hosts":-5}})");
  EXPECT_NE(invalid.find(R"("ok":false)"), std::string::npos);
  EXPECT_NE(invalid.find(R"("kind":"invalid_spec")"), std::string::npos);
  EXPECT_EQ(counter_of(service, "engine_runs"), 0u);
}

// --------------------------------------------- hostile-input corpus loop

TEST(Service, TruncationCorpusNeverCrashesAndAlwaysStructuredErrors) {
  Service service(stub_options());
  const std::string valid(kFullSpec);
  // Every strict prefix of a valid document is invalid JSON; each must
  // yield a structured parse error, never a crash.
  for (std::size_t len = 0; len < valid.size(); ++len) {
    const std::string body =
        service.handle_line(std::string_view(valid).substr(0, len));
    ASSERT_EQ(body.rfind(R"({"ok":false)", 0), 0u)
        << "prefix length " << len << ": " << body;
  }
  EXPECT_EQ(counter_of(service, "engine_runs"), 0u);
}

TEST(Service, ByteFlipCorpusNeverCrashes) {
  Service service(stub_options());
  const std::string valid(kFullSpec);
  std::mt19937 rng(0xC0FFEE);  // seeded: the corpus is reproducible
  for (int i = 0; i < 300; ++i) {
    std::string mutated = valid;
    const std::size_t pos = rng() % mutated.size();
    mutated[pos] = static_cast<char>(rng() % 256);
    const std::string body = service.handle_line(mutated);
    // A mutation may still be a valid (different) spec — then it runs on
    // the stub engine. Either way the reply is structured JSON.
    ASSERT_EQ(body.rfind(R"({"ok":)", 0), 0u)
        << "flip at " << pos << " of corpus " << i << ": " << body;
  }
  // The boundary survived the corpus; a good query still works.
  const std::string after = service.handle_line(kQuery);
  EXPECT_EQ(after.rfind(R"({"ok":true)", 0), 0u);
}

TEST(Service, HostileDocumentsGetStructuredErrors) {
  Service service(stub_options());
  const std::vector<std::string> hostile = {
      "",
      "\n",
      "garbage",
      "{\"name\":\"x\",\"seed\":1e999}",                  // inf
      "{\"name\":\"x\",\"trials\":NaN}",                  // NaN token
      R"({"name":"x","name":"y"})",                       // duplicate key
      R"({"name":"x"} trailing)",                         // framing bug
      R"([{"name":"x"}])",                                // array root
      "\"just a string\"",
      R"({"name":""})",                                   // empty name
      std::string(40, '['),                               // depth bomb
  };
  for (const std::string& doc : hostile) {
    const std::string body = service.handle_line(doc);
    ASSERT_EQ(body.rfind(R"({"ok":false)", 0), 0u)
        << "doc: " << doc << " -> " << body;
    ASSERT_NE(body.find(R"("error")"), std::string::npos);
  }
}

// A real end-to-end cell on the true engines: small, but proves the
// service wiring against the actual experiment stack (not just stubs).
TEST(Service, RealFluidEngineEndToEnd) {
  ServiceOptions options;  // default factory = exp::make_engine
  options.workers = 1;
  Service service(options);
  const std::string body = service.handle_line(
      R"({"name":"real","engine":"fsim","trials":1,)"
      R"("topo":{"hosts":16,"parallelism":2},)"
      R"("workload":{"pattern":"permutation","flow_bytes":100000}})");
  ASSERT_EQ(body.rfind(R"({"ok":true)", 0), 0u) << body;
  EXPECT_NE(body.find(R"("flows_started":16)"), std::string::npos) << body;
  EXPECT_NE(body.find(R"("unfinished_flows":0)"), std::string::npos);
  // Identical re-query: byte-identical from cache.
  EXPECT_EQ(service.handle_line(
                R"({"name":"real","engine":"fsim","trials":1,)"
                R"("topo":{"hosts":16,"parallelism":2},)"
                R"("workload":{"pattern":"permutation","flow_bytes":100000}})"),
            body);
}

/// One number of the /stats body, by its path below "stats".
double stat_of(Service& service, std::initializer_list<const char*> path) {
  JsonValue root;
  std::string error;
  EXPECT_TRUE(parse_json(service.stats_json(), root, error)) << error;
  const JsonValue* v = root.find("stats");
  for (const char* key : path) {
    if (v == nullptr) break;
    v = v->find(key);
  }
  EXPECT_NE(v, nullptr);
  return v == nullptr ? -1.0 : v->number;
}

/// The spec a reply body echoes, as the bytes it carries.
std::string echoed_spec(const std::string& body) {
  const std::size_t begin = body.find(R"("spec":)");
  const std::size_t end = body.find(R"(,"result":)");
  EXPECT_NE(begin, std::string::npos) << body;
  EXPECT_NE(end, std::string::npos) << body;
  return body.substr(begin + 7, end - begin - 7);
}

TEST(Service, ServesClosedLoopSpecsAsTheRunnerRunsThem) {
  exp::ExperimentSpec spec;
  spec.name = "rpc";
  spec.topo.type = topo::NetworkType::kParallelHomogeneous;
  spec.topo.hosts = 16;
  spec.topo.parallelism = 2;
  spec.workload.pattern = exp::WorkloadSpec::Pattern::kClosedLoop;
  spec.workload.flow_bytes = 20'000;
  spec.workload.response_bytes = 1'500;
  spec.workload.concurrent = 2;
  spec.workload.rounds = 3;
  ASSERT_EQ(spec.validate(), "");

  ServiceOptions options;  // the real engines
  options.workers = 1;
  Service service(options);
  const std::string body = service.handle_line(spec.canonical_json());
  const exp::CellResult cell = exp::Runner(1).run_cell({spec, {}});
  EXPECT_EQ(body, make_ok_body(spec.hash(), spec.canonical_json(), cell));
  EXPECT_EQ(cell.unfinished_flows(), 0u);

  // The echoed spec is a query of its own: a cache hit, same hash, same
  // bytes.
  const double hits = stat_of(service, {"cache", "hits"});
  EXPECT_EQ(service.handle_line(echoed_spec(body)), body);
  EXPECT_EQ(stat_of(service, {"cache", "hits"}), hits + 1);
  EXPECT_EQ(counter_of(service, "engine_runs"), 1u);
}

TEST(Service, ServesHadoopSpecsAsTheRunnerRunsThem) {
  exp::ExperimentSpec spec;
  spec.name = "hadoop";
  spec.topo.type = topo::NetworkType::kParallelHomogeneous;
  spec.topo.hosts = 16;
  spec.topo.parallelism = 2;
  spec.policy.policy = core::RoutingPolicy::kShortestPlane;
  spec.workload.pattern = exp::WorkloadSpec::Pattern::kHadoop;
  spec.workload.flow_bytes = 100'000;
  spec.workload.concurrent = 2;
  spec.workload.mappers = 4;
  spec.workload.reducers = 4;
  spec.workload.job_bytes = 1'600'000;
  ASSERT_EQ(spec.validate(), "");

  ServiceOptions options;  // the real engines
  options.workers = 1;
  Service service(options);
  const std::string body = service.handle_line(spec.canonical_json());
  const exp::CellResult cell = exp::Runner(1).run_cell({spec, {}});
  EXPECT_EQ(body, make_ok_body(spec.hash(), spec.canonical_json(), cell));
  EXPECT_EQ(cell.unfinished_flows(), 0u);
  EXPECT_NE(body.find(R"("flows_finished":1,)"), std::string::npos) << body;
  // The reply carries the stage times Fig 12 reads, as the Runner has
  // them: one per worker.
  std::string stages = R"("samples":{)";
  const char* separator = "";
  for (const char* stage : {"stage1_s", "stage2_s", "stage3_s"}) {
    const std::vector<double> values = cell.merged_samples(stage);
    ASSERT_EQ(values.size(), 4u) << stage;
    exp::JsonWriter w;
    w.begin_array();
    for (const double v : values) w.value(v);
    w.end_array();
    stages += separator + std::string("\"") + stage + "\":" + w.str();
    separator = ",";
  }
  EXPECT_NE(body.find(stages + "}"), std::string::npos) << body;

  // A worker's blocks and shuffle buckets are its flows: 4 read blocks,
  // 4 buckets and 4 write blocks, over a cap of 8.
  ServiceOptions capped = stub_options();
  capped.max_rounds = 8;
  const std::string over = Service(capped).handle_line(spec.canonical_json());
  EXPECT_NE(over.find(R"("kind":"invalid_spec")"), std::string::npos);
  EXPECT_NE(over.find("12 flows per host"), std::string::npos) << over;
}

// A fault spec decodes through the field list and runs in the service
// exactly as the Runner runs it.
TEST(Service, ServesFaultSpecsAsTheRunnerRunsThem) {
  const std::string line =
      R"({"name":"flap","deadline_us":20000,)"
      R"("controller":{"mode":"centralized","cadence_us":100},)"
      R"("faults":{"outage":{"plane":1,"at_us":100,"for_us":300},)"
      R"("lossy":{"cables":2,"at_us":200,"for_us":500,"loss":0.01}},)"
      R"("topo":{"kind":"fat-tree","type":"parallel-homogeneous",)"
      R"("hosts":8,"parallelism":2},)"
      R"("workload":{"flow_bytes":2000000}})";
  const exp::ExperimentSpec spec = decode_ok(line).spec;
  ASSERT_EQ(spec.validate(), "");
  ASSERT_TRUE(spec.faults.outage.has_value());
  EXPECT_EQ(spec.faults.outage->down_for, 300 * units::kMicrosecond);
  ASSERT_TRUE(spec.faults.lossy.has_value());
  EXPECT_EQ(spec.faults.lossy->loss, 0.01);

  ServiceOptions options;  // the real engines
  options.workers = 1;
  Service service(options);
  const std::string body = service.handle_line(line);
  const exp::CellResult cell = exp::Runner(1).run_cell({spec, {}});
  EXPECT_EQ(body, make_ok_body(spec.hash(), spec.canonical_json(), cell));
  for (const char* metric : {"ctl/plane_events", "repaths", "timeouts",
                             "plane_imbalance", "packets_lost"}) {
    EXPECT_NE(body.find(std::string("\"") + metric + "\":"),
              std::string::npos)
        << metric << ": " << body;
  }
  // Lossy cables need the packet engine.
  const std::string fluid = service.handle_line(
      R"({"name":"f","engine":"fsim",)"
      R"("faults":{"lossy":{"cables":1,"at_us":0,"for_us":1,"loss":0.5}}})");
  EXPECT_NE(fluid.find(R"("kind":"invalid_spec")"), std::string::npos);
  EXPECT_NE(fluid.find("needs engine=packet"), std::string::npos) << fluid;
}

TEST(Service, ServesControllerSpecs) {
  Service service(stub_options());
  const std::string body = service.handle_line(
      R"({"name":"ctl","controller":{"mode":"centralized","window":2}})");
  ASSERT_EQ(body.rfind(R"({"ok":true)", 0), 0u) << body;
  EXPECT_NE(echoed_spec(body).find(R"("controller":{"mode":"centralized",)"),
            std::string::npos);
  EXPECT_EQ(service.handle_line(echoed_spec(body)), body);
}

TEST(Service, ClosedLoopRequestsPerHostAreCapped) {
  ServiceOptions options = stub_options();
  options.max_rounds = 8;
  Service service(options);
  // 4 workers x 4 requests each: 16 requests per host, over the cap of 8
  // although `rounds` alone is under it.
  const std::string over = service.handle_line(
      R"({"name":"rpc","workload":{"pattern":"closed_loop",)"
      R"("concurrent":4,"rounds":4}})");
  EXPECT_NE(over.find(R"("kind":"invalid_spec")"), std::string::npos);
  EXPECT_NE(over.find("cap"), std::string::npos) << over;
  EXPECT_EQ(counter_of(service, "engine_runs"), 0u);

  const std::string at_cap = service.handle_line(
      R"({"name":"rpc","workload":{"pattern":"closed_loop",)"
      R"("concurrent":2,"rounds":4}})");
  EXPECT_EQ(at_cap.rfind(R"({"ok":true)", 0), 0u) << at_cap;
}

TEST(Service, WarmRouteCachesAreKeyedByTopologyAlone) {
  Service service(stub_options());
  const auto ok = [&](const char* line) {
    const std::string body = service.handle_line(line);
    EXPECT_EQ(body.rfind(R"({"ok":true)", 0), 0u) << body;
  };
  ok(R"({"name":"a","topo":{"hosts":8,"seed":3}})");
  // Another policy and workload on the same topology: the same arena.
  ok(R"({"name":"a","topo":{"hosts":8,"seed":3},"policy":{"policy":"ecmp"},)"
     R"("workload":{"flow_bytes":5000}})");
  EXPECT_EQ(counter_of(service, "route_cache_reuse"), 1u);
  EXPECT_EQ(stat_of(service, {"warm_route_topologies"}), 1.0);
  // Another topology seed: an arena of its own.
  ok(R"({"name":"a","topo":{"hosts":8,"seed":4}})");
  EXPECT_EQ(counter_of(service, "route_cache_reuse"), 1u);
  EXPECT_EQ(stat_of(service, {"warm_route_topologies"}), 2.0);
}

}  // namespace
}  // namespace pnet::serve
