// pnet-serve — daemonized experiment query service.
//
// Accepts newline-delimited exp::ExperimentSpec JSON over a Unix-domain
// socket (and optionally TCP), runs each spec on a persistent engine pool
// with warm route-cache arenas, and replies with the deterministic result
// JSON. Identical specs are served from the spec-hash result cache or
// coalesced onto one in-flight execution.
//
//   ./pnet-serve --socket=/tmp/pnet.sock --workers=2 &
//   printf '{"name":"q1","engine":"fsim","topo":{"hosts":64}}' |
//     nc -U /tmp/pnet.sock
//   rpc='{"name":"rpc","topo":{"hosts":16,"parallelism":2},"workload":'
//   rpc+='{"pattern":"closed_loop","response_bytes":1500,"concurrent":2}}'
//   printf '%s' "$rpc" | nc -U /tmp/pnet.sock
//   printf '{"stats":true}' | nc -U /tmp/pnet.sock
//
// A query is any spec block of a bench report (the reply echoes its
// canonical form, which can be resent as is): host-pair and closed-loop
// workloads, with or without a controller, on either built-in engine.
//
// SIGTERM/SIGINT drain gracefully: in-flight and queued queries finish
// (their clients get full responses), new ones are rejected retryable,
// telemetry is flushed to stderr, then the process exits 0.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <exception>
#include <string>

#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/flags.hpp"

namespace {

// Signal -> self-pipe bridge; the handler may only write(2).
int g_notify_fd = -1;

void on_signal(int) {
  if (g_notify_fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(g_notify_fd, &byte, 1);
  }
}

constexpr const char kUsage[] =
    "  --socket PATH     unix socket path (default /tmp/pnet.sock; '' = off)\n"
    "  --port N          also listen on 127.0.0.1:N (default off)\n"
    "  --workers N       engine pool threads (default 2; 0 = hw threads)\n"
    "  --queue-limit N   admission queue bound (default 64)\n"
    "  --deadline-ms D   default per-query deadline, 0 = none (default 0)\n"
    "  --cache-mb N      result cache budget in MiB (default 64; 0 = off)\n"
    "  --max-hosts N     largest accepted topo.hosts; 32 x N caps the\n"
    "                    planes x nodes per plane built (default 1024)\n"
    "  --max-trials N    largest accepted trials (default 64)\n"
    "  --max-rounds N    largest accepted flows per host: workload.rounds,\n"
    "                    or concurrent x rounds for a closed loop (default "
    "256)\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace pnet;

  const Flags flags(argc, argv);
  flags.handle_usage(kUsage);

  serve::ServiceOptions service_options;
  service_options.workers = flags.get_int("workers", 2);
  service_options.queue_limit =
      static_cast<std::size_t>(flags.get_int("queue-limit", 64));
  service_options.default_deadline_ms = flags.get_double("deadline-ms", 0.0);
  service_options.cache_bytes =
      static_cast<std::size_t>(flags.get_i64("cache-mb", 64)) << 20;
  service_options.max_hosts = flags.get_int("max-hosts", 1024);
  service_options.max_trials = flags.get_int("max-trials", 64);
  service_options.max_rounds = flags.get_int("max-rounds", 256);

  serve::ServerOptions server_options;
  server_options.unix_path = flags.get("socket", "/tmp/pnet.sock");
  server_options.tcp_port = flags.get_int("port", 0);

  try {
    serve::Service service(service_options);
    serve::Server server(service, server_options);

    g_notify_fd = server.notify_fd();
    struct sigaction sa {};
    sa.sa_handler = on_signal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    std::fprintf(stderr, "pnet-serve: %d workers, listening on %s%s\n",
                 service.workers(),
                 server_options.unix_path.empty()
                     ? "(no unix socket)"
                     : server_options.unix_path.c_str(),
                 server_options.tcp_port != 0 ? " + tcp" : "");
    server.run();  // blocks until SIGTERM/SIGINT; drains before returning

    // Final telemetry flush: the full stats document, one line on stderr.
    std::fprintf(stderr, "pnet-serve: drained; final stats:\n%s\n",
                 service.stats_json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pnet-serve: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
