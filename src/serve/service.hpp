// serve::Service — the socket-free heart of pnet-serve.
//
// One Service owns the whole query pipeline the daemon exposes:
//
//   handle_line(request JSON)
//     -> parse + strict decode (serve/request)          [reject: parse]
//     -> semantic validation + server resource caps     [reject: invalid_spec]
//     -> canonicalize -> spec hash (exp::ExperimentSpec::hash())
//     -> result-cache probe (serve/cache)               [hit: cached bytes]
//     -> in-flight dedup (identical concurrent specs
//        coalesce onto ONE engine execution)            [join: shared body]
//     -> bounded admission queue                        [reject: overloaded]
//     -> persistent exp::Engine pool (N workers, one warm
//        shared routing::RouteStore per topology)
//     -> deterministic response body -> cache insert
//
// Determinism makes the cache-and-dedup layer sound: a response body is a
// pure function of the spec's canonical JSON, so a cached or coalesced
// reply is byte-identical to a fresh engine run.
//
// Per-query deadlines ride a util::CancelToken armed at admission (queue
// wait counts against the budget — the SLO view); a blown deadline unwinds
// the engine cooperatively and returns a structured "timeout" error reusing
// the exp::TrialErrorKind taxonomy. Engine failures are isolated per query:
// the worker catches, replies {"ok":false,...}, and keeps serving.
//
// Graceful drain (the SIGTERM path): drain() stops admitting run queries
// (they bounce with a retryable "draining" error; /stats keeps answering),
// waits for queued + active work to finish — no in-flight response is ever
// lost — and leaves the telemetry registry readable for a final flush.
//
// Thread-safety: handle_line may be called from any number of threads
// concurrently (the socket front end calls it from per-connection threads,
// bench_serve from closed-loop client threads).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exp/engine.hpp"
#include "exp/spec.hpp"
#include "routing/route_cache.hpp"
#include "serve/cache.hpp"
#include "serve/request.hpp"
#include "telemetry/registry.hpp"
#include "util/cancel.hpp"

namespace pnet::serve {

struct ServiceOptions {
  /// Engine-pool worker threads; 0 = hardware concurrency.
  int workers = 2;
  /// Admission-queue bound: queries beyond it are rejected "overloaded"
  /// (the closed-loop backpressure signal), never buffered unboundedly.
  std::size_t queue_limit = 64;
  /// Default per-query wall-clock budget in ms; 0 = none. A request's own
  /// "deadline_ms" overrides it.
  double default_deadline_ms = 0.0;
  /// Result-cache byte budget (LRU-evicted); 0 disables caching.
  std::size_t cache_bytes = 64u << 20;
  /// Requests longer than this are rejected before parsing.
  std::size_t max_request_bytes = 1u << 20;
  /// Per-query resource caps — the bounded-memory contract. A spec over a
  /// cap is rejected "invalid_spec" at admission, before any allocation.
  /// max_hosts also bounds the topology's size: planes x nodes per plane
  /// may not exceed Service::kNodesPerCappedHost x max_hosts.
  int max_hosts = 1024;
  int max_trials = 64;
  int max_rounds = 256;
  /// Warm routing::RouteStores kept across queries, one per distinct
  /// topology (LRU-evicted beyond this many topologies).
  std::size_t route_cache_pool = 8;
  /// Completed-query service times kept for the p50/p99 stats (ring
  /// buffer; bounded memory).
  std::size_t latency_window = 4096;
  /// Engine factory override, for tests that inject blocking/failing
  /// engines. Null = exp::make_engine.
  std::function<std::unique_ptr<exp::Engine>(exp::EngineKind)>
      engine_factory{};
};

class Service {
 public:
  /// Built nodes (planes x nodes per plane) a query may ask for, per host
  /// of ServiceOptions::max_hosts.
  static constexpr int kNodesPerCappedHost = 32;

  explicit Service(ServiceOptions options = {});
  /// Hard stop: cancels active queries (their clients get a structured
  /// "cancelled" reply), drops queued ones the same way, joins workers.
  /// For the graceful path call drain() first.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Serves one request line, blocking until the response body is ready.
  /// Always returns a single-line JSON body — {"ok":true,...} with the
  /// experiment result (or stats), {"ok":false,"error":{...}} otherwise.
  [[nodiscard]] std::string handle_line(std::string_view line);

  /// Graceful drain: stop admitting run queries, finish queued + active
  /// work, return once idle. Stats queries keep working; the service can
  /// not be un-drained.
  void drain();
  [[nodiscard]] bool draining() const;

  /// The /stats response body (also reachable via {"stats":true}).
  [[nodiscard]] std::string stats_json();

  /// Service-level counters/gauges (queries, rejects, engine runs...).
  [[nodiscard]] telemetry::Registry& registry() { return registry_; }
  [[nodiscard]] const ServiceOptions& options() const { return options_; }
  [[nodiscard]] int workers() const {
    return static_cast<int>(workers_.size());
  }

 private:
  /// One admitted query; followers share the leader's Inflight and wake on
  /// its completion with the identical body.
  struct Inflight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const std::string> body;
  };

  struct Job {
    std::uint64_t hash = 0;
    std::string canonical;  // the spec's canonical JSON, echoed in the body
    exp::ExperimentSpec spec;
    util::CancelToken cancel;
    std::shared_ptr<Inflight> inflight;
  };

  void worker_loop();
  /// Runs the job's engine and builds the response body. `cacheable` is
  /// true only for successful, deterministic results.
  std::shared_ptr<const std::string> execute(const Job& job, bool& cacheable);
  std::shared_ptr<routing::RouteCache> warm_route_cache(
      const topo::NetworkSpec& topo);
  exp::Engine* engine_for(exp::EngineKind kind);
  void record_latency(double ms);
  static void fulfill(const std::shared_ptr<Inflight>& inflight,
                      std::shared_ptr<const std::string> body);
  /// Rejection of a spec exceeding the per-query resource caps, or empty.
  [[nodiscard]] std::string over_cap(const exp::ExperimentSpec& spec) const;

  ServiceOptions options_;
  telemetry::Registry registry_;
  ResultCache cache_;

  std::unique_ptr<exp::Engine> packet_engine_;
  std::unique_ptr<exp::Engine> fluid_engine_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::condition_variable drained_cv_;
  std::deque<Job> queue_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Inflight>> inflight_;
  /// Cancel tokens of jobs currently executing, for the hard-stop path.
  std::list<util::CancelToken> active_tokens_;
  int active_ = 0;
  bool draining_ = false;
  bool stop_ = false;

  /// Warm route stores, one per topology (LRU-capped at route_cache_pool).
  routing::RoutePool route_pool_;

  std::mutex latency_mutex_;
  std::vector<double> latency_ms_;  // ring buffer
  std::size_t latency_next_ = 0;
  std::uint64_t latency_count_ = 0;

  telemetry::Registry::Counter queries_total_;
  telemetry::Registry::Counter queries_ok_;
  telemetry::Registry::Counter engine_runs_;
  telemetry::Registry::Counter dedup_joins_;
  telemetry::Registry::Counter errors_exception_;
  telemetry::Registry::Counter errors_timeout_;
  telemetry::Registry::Counter errors_cancelled_;
  telemetry::Registry::Counter rejected_parse_;
  telemetry::Registry::Counter rejected_invalid_;
  telemetry::Registry::Counter rejected_oversized_;
  telemetry::Registry::Counter rejected_overload_;
  telemetry::Registry::Counter rejected_draining_;
  telemetry::Registry::Counter route_cache_reuse_;
  telemetry::Registry::Gauge queue_depth_;
  telemetry::Registry::Gauge active_gauge_;

  std::vector<std::thread> workers_;
};

/// Response-body builders, shared with tests and the load harness.
[[nodiscard]] std::string make_error_body(const RequestError& error);
[[nodiscard]] std::string make_ok_body(std::uint64_t spec_hash,
                                       const std::string& canonical_spec,
                                       const exp::CellResult& cell);
/// 16 lowercase hex digits, the wire form of a spec hash.
[[nodiscard]] std::string hash_hex(std::uint64_t hash);

}  // namespace pnet::serve
