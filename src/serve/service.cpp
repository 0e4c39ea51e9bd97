#include "serve/service.hpp"

#include <chrono>
#include <cstdio>
#include <map>
#include <utility>

#include "exp/json.hpp"
#include "exp/report.hpp"
#include "topo/parallel.hpp"
#include "util/stats.hpp"

namespace pnet::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void summary_json(exp::JsonWriter& w, const exp::Summary& s) {
  w.begin_object();
  w.field("count", static_cast<std::uint64_t>(s.count));
  w.field("mean", s.mean);
  w.field("stddev", s.stddev);
  w.field("median", s.median);
  w.field("p90", s.p90);
  w.field("p99", s.p99);
  w.field("min", s.min);
  w.field("max", s.max);
  w.end_object();
}

}  // namespace

std::string hash_hex(std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::string make_error_body(const RequestError& error) {
  exp::JsonWriter w;
  w.begin_object();
  w.field("ok", false);
  w.key("error").begin_object();
  w.field("kind", error.code);
  w.field("message", error.message);
  w.field("retryable", error.retryable);
  w.end_object();
  w.end_object();
  return w.str();
}

std::string make_ok_body(std::uint64_t spec_hash,
                         const std::string& canonical_spec,
                         const exp::CellResult& cell) {
  exp::JsonWriter w;
  w.begin_object();
  w.field("trials", static_cast<int>(cell.trials.size()));
  w.field("flows_started", cell.flows_started());
  w.field("flows_finished", cell.flows_finished());
  w.field("unfinished_flows", cell.unfinished_flows());
  w.field("delivered_bytes", cell.delivered_bytes());
  w.field("sim_seconds", cell.sim_seconds());
  w.field("events", cell.events());
  w.key("fct_us");
  summary_json(w, cell.fct());
  // Union of per-trial scalar metrics, mean across trials, in key order —
  // deterministic like everything else in the body.
  std::map<std::string, bool> keys;
  for (const auto& trial : cell.trials) {
    for (const auto& [key, value] : trial.metrics) keys[key] = true;
  }
  w.key("metrics").begin_object();
  for (const auto& [key, unused] : keys) {
    w.field(key, cell.metric(key).mean);
  }
  w.end_object();
  // Named sample sets (a Hadoop cell's stage times), every trial's values
  // merged in trial order; written only when the cell has any.
  std::map<std::string, bool> sample_keys;
  for (const auto& trial : cell.trials) {
    for (const auto& [key, values] : trial.samples) sample_keys[key] = true;
  }
  if (!sample_keys.empty()) {
    w.key("samples").begin_object();
    for (const auto& [key, unused] : sample_keys) {
      w.key(key).begin_array();
      for (const double value : cell.merged_samples(key)) w.value(value);
      w.end_array();
    }
    w.end_object();
  }
  w.end_object();
  // The canonical spec is already JSON — splice it in verbatim so the
  // response echoes exactly the bytes that were hashed.
  std::string body = "{\"ok\":true,\"schema\":1,\"spec_hash\":\"";
  body += hash_hex(spec_hash);
  body += "\",\"spec\":";
  body += canonical_spec;
  body += ",\"result\":";
  body += w.str();
  body += "}";
  return body;
}

Service::Service(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_bytes),
      route_pool_(options_.route_cache_pool),
      queries_total_(registry_.counter("queries_total")),
      queries_ok_(registry_.counter("queries_ok")),
      engine_runs_(registry_.counter("engine_runs")),
      dedup_joins_(registry_.counter("dedup_joins")),
      errors_exception_(registry_.counter("errors_exception")),
      errors_timeout_(registry_.counter("errors_timeout")),
      errors_cancelled_(registry_.counter("errors_cancelled")),
      rejected_parse_(registry_.counter("rejected_parse")),
      rejected_invalid_(registry_.counter("rejected_invalid_spec")),
      rejected_oversized_(registry_.counter("rejected_oversized")),
      rejected_overload_(registry_.counter("rejected_overload")),
      rejected_draining_(registry_.counter("rejected_draining")),
      route_cache_reuse_(registry_.counter("route_cache_reuse")),
      queue_depth_(registry_.gauge("queue_depth")),
      active_gauge_(registry_.gauge("active_queries")) {
  auto factory = options_.engine_factory;
  if (!factory) {
    factory = [](exp::EngineKind kind) { return exp::make_engine(kind); };
  }
  packet_engine_ = factory(exp::EngineKind::kPacket);
  fluid_engine_ = factory(exp::EngineKind::kFsim);
  int workers = options_.workers;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) workers = 2;
  }
  latency_ms_.resize(options_.latency_window > 0 ? options_.latency_window
                                                 : 1);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Service::~Service() {
  std::deque<Job> orphans;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    stop_ = true;
    orphans.swap(queue_);
    queue_depth_.set(0.0);
    for (const auto& token : active_tokens_) token.cancel();
    queue_cv_.notify_all();
  }
  // Queued-but-never-started queries still get a structured reply — a
  // blocked handle_line caller must never hang on a dying service.
  const auto body = std::make_shared<const std::string>(make_error_body(
      {exp::to_string(exp::TrialErrorKind::kCancelled),
       "service shutting down", true}));
  for (const auto& job : orphans) fulfill(job.inflight, body);
  for (auto& worker : workers_) worker.join();
}

void Service::fulfill(const std::shared_ptr<Inflight>& inflight,
                      std::shared_ptr<const std::string> body) {
  const std::lock_guard<std::mutex> lock(inflight->mutex);
  inflight->body = std::move(body);
  inflight->done = true;
  inflight->cv.notify_all();
}

std::string Service::over_cap(const exp::ExperimentSpec& spec) const {
  if (spec.topo.hosts > options_.max_hosts) {
    return "topo.hosts " + std::to_string(spec.topo.hosts) +
           " exceeds this server's cap of " +
           std::to_string(options_.max_hosts);
  }
  // What gets built: planes x nodes per plane. A plane holds about two
  // nodes per host (a k = 4 fat tree 2.25, a Jellyfish 1.25), so
  // kNodesPerCappedHost x max_hosts admits 16 planes of a fabric at the
  // host cap, while no `parallelism` or `jf_switches` can ask for millions.
  const std::int64_t node_cap =
      std::int64_t{kNodesPerCappedHost} * options_.max_hosts;
  const std::int64_t planes = topo::num_planes(spec.topo);
  const std::int64_t nodes = topo::plane_nodes(spec.topo);
  if (nodes > node_cap / planes) {
    return "topo of " + std::to_string(planes) + " planes x " +
           std::to_string(nodes) + " nodes exceeds this server's cap of " +
           std::to_string(node_cap) + " nodes";
  }
  if (spec.trials > options_.max_trials) {
    return "trials " + std::to_string(spec.trials) +
           " exceeds this server's cap of " +
           std::to_string(options_.max_trials);
  }
  // Flows per host: `rounds` for a host-pair pattern, `concurrent` workers
  // times `rounds` requests each for a closed loop, an open loop's
  // `rounds` flows spread over the hosts, a Hadoop worker's blocks and
  // shuffle buckets, and one for an incast sender.
  using P = exp::WorkloadSpec::Pattern;
  const exp::WorkloadSpec& w = spec.workload;
  const auto blocks = [&w](int workers) {
    const std::uint64_t share =
        w.job_bytes / static_cast<std::uint64_t>(workers);
    return static_cast<std::int64_t>((share + w.flow_bytes - 1) /
                                     w.flow_bytes);
  };
  std::int64_t flows = w.rounds;
  if (w.pattern == P::kClosedLoop) flows *= w.concurrent;
  if (w.pattern == P::kOpenLoop) flows = (flows - 1) / spec.topo.hosts + 1;
  if (w.pattern == P::kHadoop) {
    flows = blocks(w.mappers) + w.reducers + blocks(w.reducers);
  }
  if (flows > options_.max_rounds) {
    return "workload of " + std::to_string(flows) +
           " flows per host exceeds this server's cap of " +
           std::to_string(options_.max_rounds);
  }
  return "";
}

std::string Service::handle_line(std::string_view line) {
  const auto start = Clock::now();
  queries_total_.inc();
  if (line.size() > options_.max_request_bytes) {
    rejected_oversized_.inc();
    return make_error_body(
        {kErrOversized,
         "request of " + std::to_string(line.size()) +
             " bytes exceeds the " +
             std::to_string(options_.max_request_bytes) + "-byte limit",
         false});
  }
  Request request;
  RequestError error;
  ParseLimits limits;
  limits.max_bytes = options_.max_request_bytes;
  if (!decode_request(line, request, error, limits)) {
    (error.code == kErrParse ? rejected_parse_ : rejected_invalid_).inc();
    return make_error_body(error);
  }
  if (request.kind == Request::Kind::kStats) return stats_json();

  if (std::string problem = request.spec.validate(); !problem.empty()) {
    rejected_invalid_.inc();
    return make_error_body({kErrInvalidSpec, problem, false});
  }
  if (std::string problem = over_cap(request.spec); !problem.empty()) {
    rejected_invalid_.inc();
    return make_error_body({kErrInvalidSpec, problem, false});
  }

  std::string canonical = request.spec.canonical_json();
  const std::uint64_t hash = exp::fnv1a(canonical);

  std::shared_ptr<Inflight> inflight;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Cache probe under the admission lock: a worker inserts the body
    // before retiring its in-flight entry, so probe-then-join can never
    // miss both.
    if (auto body = cache_.find(hash); body != nullptr) {
      record_latency(ms_since(start));
      return *body;
    }
    if (const auto it = inflight_.find(hash); it != inflight_.end()) {
      dedup_joins_.inc();
      inflight = it->second;
    } else if (draining_) {
      rejected_draining_.inc();
      return make_error_body(
          {kErrDraining, "service is draining; retry elsewhere", true});
    } else if (queue_.size() >= options_.queue_limit) {
      rejected_overload_.inc();
      return make_error_body(
          {kErrOverloaded,
           "admission queue full (depth " + std::to_string(queue_.size()) +
               ")",
           true});
    } else {
      const double deadline_ms = request.deadline_ms > 0.0
                                     ? request.deadline_ms
                                     : options_.default_deadline_ms;
      Job job;
      job.hash = hash;
      job.canonical = std::move(canonical);
      job.spec = std::move(request.spec);
      job.cancel = util::CancelToken::armed();
      if (deadline_ms > 0.0) {
        job.cancel.set_deadline(
            Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(deadline_ms)));
      }
      inflight = std::make_shared<Inflight>();
      job.inflight = inflight;
      inflight_[hash] = inflight;
      queue_.push_back(std::move(job));
      queue_depth_.set(static_cast<double>(queue_.size()));
      queue_cv_.notify_one();
    }
  }

  std::shared_ptr<const std::string> body;
  {
    std::unique_lock<std::mutex> lock(inflight->mutex);
    inflight->cv.wait(lock, [&] { return inflight->done; });
    body = inflight->body;
  }
  record_latency(ms_since(start));
  return *body;
}

void Service::worker_loop() {
  while (true) {
    Job job;
    std::list<util::CancelToken>::iterator token_it;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_.set(static_cast<double>(queue_.size()));
      ++active_;
      active_gauge_.set(static_cast<double>(active_));
      token_it = active_tokens_.insert(active_tokens_.end(), job.cancel);
    }
    bool cacheable = false;
    std::shared_ptr<const std::string> body = execute(job, cacheable);
    if (cacheable) cache_.insert(job.hash, body);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      inflight_.erase(job.hash);
      active_tokens_.erase(token_it);
      --active_;
      active_gauge_.set(static_cast<double>(active_));
      if (queue_.empty() && active_ == 0) drained_cv_.notify_all();
    }
    fulfill(job.inflight, std::move(body));
  }
}

std::shared_ptr<const std::string> Service::execute(const Job& job,
                                                    bool& cacheable) {
  cacheable = false;
  // A deadline blown while queued skips the engine outright.
  if (job.cancel.cancelled()) {
    const bool timeout =
        job.cancel.reason() == util::CancelToken::Reason::kDeadline;
    (timeout ? errors_timeout_ : errors_cancelled_).inc();
    return std::make_shared<const std::string>(make_error_body(
        {exp::to_string(timeout ? exp::TrialErrorKind::kTimeout
                                : exp::TrialErrorKind::kCancelled),
         timeout ? "query deadline expired while queued" : "query cancelled",
         true}));
  }
  exp::EngineContext ctx;
  ctx.route_cache = warm_route_cache(job.spec.topo);
  ctx.cancel = job.cancel;
  engine_runs_.inc();
  try {
    const exp::CellResult cell =
        engine_for(job.spec.engine)->run(job.spec, ctx);
    queries_ok_.inc();
    cacheable = true;
    return std::make_shared<const std::string>(
        make_ok_body(job.hash, job.canonical, cell));
  } catch (const exp::TrialCancelled& e) {
    // Timeouts and cancellations depend on wall clock, not on the spec —
    // never cached.
    (e.kind() == exp::TrialErrorKind::kTimeout ? errors_timeout_
                                               : errors_cancelled_)
        .inc();
    return std::make_shared<const std::string>(
        make_error_body({exp::to_string(e.kind()), e.what(), true}));
  } catch (const std::exception& e) {
    errors_exception_.inc();
    return std::make_shared<const std::string>(make_error_body(
        {exp::to_string(exp::TrialErrorKind::kException), e.what(), false}));
  } catch (...) {
    errors_exception_.inc();
    return std::make_shared<const std::string>(make_error_body(
        {exp::to_string(exp::TrialErrorKind::kException),
         "unknown error in engine", false}));
  }
}

exp::Engine* Service::engine_for(exp::EngineKind kind) {
  return kind == exp::EngineKind::kFsim ? fluid_engine_.get()
                                        : packet_engine_.get();
}

std::shared_ptr<routing::RouteCache> Service::warm_route_cache(
    const topo::NetworkSpec& topo) {
  // Keyed by the NetworkSpec block of the canonical JSON. Policy and
  // workload are absent: store entries are keyed by the full RouteQuery
  // already, so queries differing only there share one store. Each query
  // reads it through a handle of its own.
  const std::string key = exp::canonical_json(topo);
  bool reused = false;
  std::shared_ptr<routing::RouteCache> cache;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    cache = route_pool_.handle(key, &reused);
  }
  if (reused) route_cache_reuse_.inc();
  return cache;
}

void Service::record_latency(double ms) {
  const std::lock_guard<std::mutex> lock(latency_mutex_);
  latency_ms_[latency_next_] = ms;
  latency_next_ = (latency_next_ + 1) % latency_ms_.size();
  ++latency_count_;
}

void Service::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  drained_cv_.wait(lock, [&] { return queue_.empty() && active_ == 0; });
}

bool Service::draining() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

std::string Service::stats_json() {
  std::vector<double> window;
  std::uint64_t served = 0;
  {
    const std::lock_guard<std::mutex> lock(latency_mutex_);
    served = latency_count_;
    const std::size_t n =
        latency_count_ < latency_ms_.size()
            ? static_cast<std::size_t>(latency_count_)
            : latency_ms_.size();
    window.assign(latency_ms_.begin(),
                  latency_ms_.begin() + static_cast<std::ptrdiff_t>(n));
  }
  const auto pcts = percentiles(window, {50.0, 90.0, 99.0});
  const auto snap = registry_.snapshot();
  const auto cache = cache_.stats();
  std::size_t depth = 0;
  int active = 0;
  bool is_draining = false;
  std::size_t warm_topos = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    depth = queue_.size();
    active = active_;
    is_draining = draining_;
    warm_topos = route_pool_.size();
  }
  exp::JsonWriter w;
  w.begin_object();
  w.field("ok", true);
  w.key("stats").begin_object();
  w.field("workers", static_cast<int>(workers_.size()));
  w.field("queue_depth", static_cast<std::uint64_t>(depth));
  w.field("queue_limit", static_cast<std::uint64_t>(options_.queue_limit));
  w.field("active_queries", active);
  w.field("draining", is_draining);
  w.field("warm_route_topologies", static_cast<std::uint64_t>(warm_topos));
  w.key("counters").begin_object();
  for (const auto& [name, value] : snap.counters) w.field(name, value);
  w.end_object();
  w.key("cache").begin_object();
  w.field("hits", cache.hits);
  w.field("misses", cache.misses);
  w.field("insertions", cache.insertions);
  w.field("evictions", cache.evictions);
  w.field("entries", static_cast<std::uint64_t>(cache.entries));
  w.field("bytes", static_cast<std::uint64_t>(cache.bytes));
  w.field("max_bytes", static_cast<std::uint64_t>(cache.max_bytes));
  const std::uint64_t probes = cache.hits + cache.misses;
  w.field("hit_rate", probes == 0 ? 0.0
                                  : static_cast<double>(cache.hits) /
                                        static_cast<double>(probes));
  w.end_object();
  w.key("service_ms").begin_object();
  w.field("count", served);
  w.field("window", static_cast<std::uint64_t>(window.size()));
  w.field("p50", pcts[0]);
  w.field("p90", pcts[1]);
  w.field("p99", pcts[2]);
  w.end_object();
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace pnet::serve
