// perfbench: one timed run of one benchmark workload.
//
// Usage: perfbench --workload=NAME --seed=N [--scale=full|tiny]
//                  [--trace-out=PATH | --setup-only=1]
//
// Builds the workload's grid from the seed, runs it through exp::Runner::run
// (one call per phase of the grid), serialises the exp::Report, checks the
// outputs and prints one JSON line: the end-to-end timings, a host-speed
// probe taken after them, the counts the checks used, the failed checks,
// and a digest of the timing-free report (identical digests mean identical
// results). With --trace-out the cells run the traced trial bodies, the
// line also carries the per-layer metrics, and the spans are written to
// PATH as Chrome trace_event JSON. With --setup-only=1 the process stops
// where the first Runner::run call would start and prints only that time.
// perfbench/run.py repeats this binary and reports medians.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/json.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "spans.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace {

using namespace pnet;
using perfbench::mono_ns;

struct Args {
  perfbench::Workload workload = perfbench::Workload::kPacketFig9;
  std::uint64_t seed = 0;
  perfbench::Scale scale = perfbench::Scale::kFull;
  std::string trace_out;
  bool setup_only = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload=packet-fig9|fsim-paper|packet-rpc"
               " --seed=N [--scale=full|tiny]"
               " [--trace-out=PATH | --setup-only=1]\n",
               problem.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.substr(0, 2) != "--" || eq == std::string_view::npos) {
      usage("malformed argument '" + std::string(arg) + "'");
    }
    const std::string_view key = arg.substr(2, eq - 2);
    const std::string value(arg.substr(eq + 1));
    if (key == "workload") {
      const auto w = perfbench::workload_from_string(value);
      if (!w) usage("unknown workload '" + value + "'");
      args.workload = *w;
      have_workload = true;
    } else if (key == "seed") {
      char* end = nullptr;
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') {
        usage("--seed must be a non-negative integer");
      }
      have_seed = true;
    } else if (key == "scale") {
      if (value != "full" && value != "tiny") usage("unknown scale");
      args.scale = value == "tiny" ? perfbench::Scale::kTiny
                                   : perfbench::Scale::kFull;
    } else if (key == "trace-out") {
      if (value.empty()) usage("--trace-out needs a path");
      args.trace_out = value;
    } else if (key == "setup-only") {
      if (value != "0" && value != "1") usage("--setup-only takes 0 or 1");
      args.setup_only = value == "1";
    } else {
      usage("unknown flag '--" + std::string(key) + "'");
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  if (args.setup_only && !args.trace_out.empty()) {
    usage("--setup-only and --trace-out exclude each other");
  }
  return args;
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Flows (or RPCs) each cell set out to complete: the plan's per-host
/// count times the host count of the cell's network, which the topology
/// builder may round up from the requested one.
std::vector<std::uint64_t> attempted_per_cell(
    const perfbench::Plan& plan, const std::vector<exp::CellResult>& cells) {
  std::map<std::string, std::uint64_t> hosts_by_topology;
  std::vector<std::uint64_t> attempted;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const topo::NetworkSpec& spec = cells[i].spec.topo;
    const std::string key = topo::to_string(spec.type) + "/" +
                            std::to_string(spec.hosts) + "/" +
                            std::to_string(spec.parallelism) + "/" +
                            std::to_string(spec.seed);
    auto it = hosts_by_topology.find(key);
    if (it == hosts_by_topology.end()) {
      it = hosts_by_topology
               .emplace(key, static_cast<std::uint64_t>(
                                 topo::build_network(spec).num_hosts()))
               .first;
    }
    attempted.push_back(it->second * plan.per_host[i]);
  }
  return attempted;
}

/// The output checks; returns one line per failure.
std::vector<std::string> check(const perfbench::Plan& plan,
                               const std::vector<std::uint64_t>& attempted,
                               const std::vector<exp::CellResult>& cells,
                               const exp::Report& report) {
  // INT64_MAX picoseconds: where a runaway simulated clock parks.
  const double clock_limit_s =
      units::to_seconds(std::numeric_limits<SimTime>::max());
  std::vector<std::string> failures;
  if (report.total_trial_errors() > 0) {
    failures.push_back(std::to_string(report.total_trial_errors()) +
                       " trial error(s)");
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const exp::CellResult& cell = cells[i];
    const std::string name = "cell '" + cell.spec.name + "': ";
    for (const exp::TrialError& error : cell.errors) {
      failures.push_back(name + exp::to_string(error.kind) + ": " +
                         error.what);
    }
    const std::uint64_t started = cell.flows_started();
    const std::uint64_t finished = cell.flows_finished();
    if (finished > started) {
      failures.push_back(name + "finished " + std::to_string(finished) +
                         " > started " + std::to_string(started));
    }
    if (cell.errors.empty()) {
      if (started != attempted[i]) {
        failures.push_back(name + "started " + std::to_string(started) +
                           " of " + std::to_string(attempted[i]));
      } else if (finished != started) {
        failures.push_back(name + std::to_string(started - finished) +
                           " unfinished");
      }
      const double offered = static_cast<double>(attempted[i]) *
                             static_cast<double>(plan.unit_bytes[i]);
      // Packet flows deliver every byte. A fluid flow completes once less
      // than half a byte is left (fsim's completion threshold), and its
      // bytes are doubles.
      const double slack =
          cell.spec.engine == exp::EngineKind::kFsim
              ? 0.5 * static_cast<double>(attempted[i]) + 1e-9 * offered
              : 0.0;
      if (std::abs(cell.delivered_bytes() - offered) > slack) {
        failures.push_back(name + "delivered " +
                           exp::json_double(cell.delivered_bytes()) +
                           " bytes, offered " + exp::json_double(offered));
      }
    }
    for (const exp::TrialResult& trial : cell.trials) {
      if (!std::isfinite(trial.sim_seconds) || trial.sim_seconds < 0 ||
          trial.sim_seconds >= clock_limit_s) {
        failures.push_back(name + "sim_seconds " +
                           exp::json_double(trial.sim_seconds) +
                           " is not a finite clock below INT64_MAX ps");
      }
    }
  }
  return failures;
}

double sum_trial_runtime(const std::vector<exp::CellResult>& cells,
                         const std::string& key) {
  double total = 0.0;
  for (const auto& cell : cells) {
    for (const auto& trial : cell.trials) {
      if (const auto it = trial.runtime.find(key); it != trial.runtime.end()) {
        total += it->second;
      }
    }
  }
  return total;
}

double sum_cell_runtime(const std::vector<exp::CellResult>& cells,
                        const std::string& key) {
  double total = 0.0;
  for (const auto& cell : cells) {
    if (const auto it = cell.runtime.find(key); it != cell.runtime.end()) {
      total += it->second;
    }
  }
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The host's current speed, as the median time of five runs of a fixed
/// chain of dependent integer multiply-adds. On a shared VM the speed of
/// the same code drifts by tens of percent within minutes; run.py scales
/// each process's end-to-end times by a reference probe time over this one
/// (README.md, "Host-speed probe").
double speed_probe_s() {
  // Loaded through volatiles so the compiler cannot fold the chain.
  volatile std::uint64_t multiplier = 6364136223846793005ULL;
  volatile std::uint64_t sink = 1;
  std::array<double, 5> reps{};
  for (double& rep : reps) {
    const std::uint64_t mul = multiplier;
    std::uint64_t x = sink;
    const std::int64_t start = mono_ns();
    for (int i = 0; i < 24'000'000; ++i) x = x * mul + 1442695040888963407ULL;
    rep = seconds(mono_ns() - start);
    sink = x;
  }
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

/// The per-layer metrics of a traced run (README.md defines each one).
std::map<std::string, double> layer_metrics(
    perfbench::SpanLog& log, int runner_span,
    const std::vector<exp::CellResult>& cells, const exp::Report& report,
    std::size_t jobs) {
  std::map<std::string, double> self = log.self_seconds();
  std::map<std::string, double> m;
  const double compile_s = self["routing.compile"];
  const double misses = sum_cell_runtime(cells, "route_cache_misses");
  const double hits = sum_cell_runtime(cells, "route_cache_hits");
  m["routing.compile_s"] = compile_s;
  m["routing.misses"] = misses;
  m["routing.hits"] = hits;
  m["routing.hit_rate"] = ratio(hits, hits + misses);
  m["routing.ms_per_miss"] = ratio(compile_s * 1e3, misses);
  m["routing.arena_mb"] =
      sum_cell_runtime(cells, "route_cache_arena_bytes") / (1024.0 * 1024.0);

  const double run_s = self["sim.run"] + self["sim.finalize"];
  const double events = sum_trial_runtime(cells, "sim.events");
  m["sim.run_s"] = run_s;
  m["sim.events"] = events;
  m["sim.events_per_s"] = ratio(events, run_s);
  m["sim.flows"] = sum_trial_runtime(cells, "sim.flows");
  m["sim.drops"] = sum_trial_runtime(cells, "sim.drops");
  m["sim.rtos"] = sum_trial_runtime(cells, "sim.rtos");
  m["sim.retransmits"] = sum_trial_runtime(cells, "sim.retransmits");

  m["core.select_s"] = self["core.select"];
  m["core.flow_start_s"] = self["core.flow_start"];
  m["core.harness_s"] = self["core.SimHarness"] + self["core.~SimHarness"];

  const double full = sum_trial_runtime(cells, "fsim.full_solves");
  const double fast = sum_trial_runtime(cells, "fsim.fast_paths");
  m["fsim.run_s"] =
      self["fsim.FluidSimulator"] + self["fsim.add_flow"] + self["fsim.run"];
  m["fsim.events"] = sum_trial_runtime(cells, "fsim.events");
  m["fsim.full_solves"] = full;
  m["fsim.fast_paths"] = fast;
  m["fsim.fast_path_ratio"] = ratio(fast, fast + full);

  m["topo.build_s"] = self["topo.build_network"];

  const perfbench::Span& runner = log.spans()[static_cast<std::size_t>(
      runner_span)];
  double trial_s = 0.0;
  for (const perfbench::Span& span : log.spans()) {
    if (std::string_view(span.name) == "exp.trial") {
      trial_s += seconds(span.end_ns - span.start_ns);
    }
  }
  const unsigned workers =
      util::worker_count(jobs, perfbench::kRunnerThreads);
  m["exp.overhead_s"] = log.self_seconds(runner_span);
  m["exp.worker_idle_frac"] =
      workers > 1 ? 1.0 - ratio(trial_s, workers * seconds(runner.end_ns -
                                                           runner.start_ns))
                  : 0.0;
  m["exp.report_s"] = self["exp.Report::to_json"];
  m["exp.trial_errors"] = static_cast<double>(report.total_trial_errors());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: assertions are on; refusing to time a "
                       "non-Release build\n");
  return 3;
#endif
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: build type is '%s'; only Release (with "
                         "LTO) is timed\n", PERFBENCH_BUILD_TYPE);
    return 3;
  }
  const Args args = parse_args(argc, argv);
  const bool traced = !args.trace_out.empty();

  // Set-up: everything the process does before the first Runner::run call.
  std::unique_ptr<perfbench::SpanLog> log;
  int runner_span = -1;
  if (traced) {
    log = std::make_unique<perfbench::SpanLog>();
    // Trial spans hang under the Runner::run span, timed once it returns.
    runner_span = log->add_run_span("exp.Runner::run", 0, 0);
    log->set_trial_parent(runner_span);
  }
  const perfbench::Plan plan =
      perfbench::make_plan(args.workload, args.seed, args.scale, log.get());
  std::vector<std::vector<exp::Cell>> phases;
  std::size_t phase_begin = 0;
  for (const std::size_t end : plan.phase_end) {
    phases.emplace_back(plan.cells.begin() + phase_begin,
                        plan.cells.begin() + end);
    phase_begin = end;
  }
  const exp::Runner runner(perfbench::kRunnerThreads);

  const std::int64_t run_start = mono_ns();
  if (args.setup_only) {
    std::printf("{\"runner_start_mono_ns\":%lld}\n",
                static_cast<long long>(run_start));
    return 0;
  }
  std::vector<exp::CellResult> cells;
  for (const std::vector<exp::Cell>& phase : phases) {
    for (exp::CellResult& cell : runner.run(phase)) {
      cells.push_back(std::move(cell));
    }
  }
  const std::int64_t run_end = mono_ns();
  exp::Report report(std::string("perfbench/") +
                     perfbench::to_string(args.workload));
  report.record_runtime(seconds(run_end - run_start), runner.threads(),
                        runner.sim_threads());
  for (const exp::CellResult& cell : cells) report.add(cell);
  const std::int64_t json_start = mono_ns();
  const std::string json = report.to_json(/*with_runtime=*/true);
  const std::int64_t run_done = mono_ns();

  // Untimed from here on.
  const std::uint64_t digest = exp::fnv1a(report.to_json(false));
  double parallel_s = 0.0;
  double serial_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t finished = 0;
  std::uint64_t started = 0;
  std::uint64_t events = 0;
  double delivered = 0.0;
  const std::vector<std::uint64_t> planned = attempted_per_cell(plan, cells);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const exp::CellResult& cell = cells[i];
    (perfbench::is_parallel(cell.spec.topo.type) ? parallel_s : serial_s) +=
        cell.wall_s();
    attempted += planned[i];
    finished += cell.flows_finished();
    started += cell.flows_started();
    events += cell.events();
    delivered += cell.delivered_bytes();
  }
  const std::vector<std::string> failures =
      check(plan, planned, cells, report);

  exp::JsonWriter out;
  out.begin_object();
  out.field("workload", perfbench::to_string(args.workload));
  out.field("seed", args.seed);
  out.field("traced", traced);
  out.field("build_type", PERFBENCH_BUILD_TYPE);
  out.field("compiler", PERFBENCH_COMPILER);
  out.field("lto", PERFBENCH_LTO != 0);
  out.field("runner_threads", perfbench::kRunnerThreads);
  out.field("cells", static_cast<std::uint64_t>(cells.size()));
  out.field("runner_start_mono_ns", static_cast<std::int64_t>(run_start));
  out.field("wall_s", seconds(run_done - run_start));
  out.field("parallel_s", parallel_s);
  out.field("serial_s", serial_s);
  out.field("peak_rss_mb", peak_rss_mb());
  out.field("probe_s", speed_probe_s());
  out.field("report_bytes", static_cast<std::uint64_t>(json.size()));
  out.field("attempted", attempted);
  out.field("failed", attempted - std::min(finished, attempted));
  out.field("flows_started", started);
  out.field("flows_finished", finished);
  out.field("events", events);
  out.field("delivered_bytes", delivered);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  out.field("digest", std::string_view(hex));
  out.key("failures").begin_array();
  for (const std::string& failure : failures) out.value(failure);
  out.end_array();
  if (traced) {
    log->set_times(runner_span, run_start, run_end);
    log->add_run_span("exp.Report::to_json", json_start, run_done);
    out.key("layers").begin_object();
    for (const auto& [name, value] :
         layer_metrics(*log, runner_span, cells, report, cells.size())) {
      out.field(name, value);
    }
    out.end_object();
    std::ofstream trace(args.trace_out, std::ios::binary);
    trace << log->chrome_json();
    if (!trace) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  }
  out.end_object();
  std::printf("%s\n", out.str().c_str());
  return failures.empty() ? 0 : 1;
}
