// Dynamic fault recovery: goodput timelines through a mid-run plane flap
// and a lossy-cable episode, serial vs parallel P-Nets (§3.4).
//
// A Jellyfish permutation workload of long bulk flows runs on the serial
// low-bandwidth network (N=1) and on 4-plane homogeneous/heterogeneous
// P-Nets. Mid-run, plane 0 (the only plane, for serial) dies and comes
// back; later a handful of cables run at a packet loss rate for a while.
// End hosts detect the plane outage after a link-status propagation delay
// (--controller-detect-delay) and repath live flows onto surviving planes
// — so the P-Nets dip by roughly 1/N and close the gap within the
// detection delay, while the serial network collapses to zero for the
// whole outage. A detection-delay sweep at the end shows time-to-recover
// tracking the delay.
//
// Seven host-local packet specs (3 timeline networks + 4 sweep delays)
// with the flap and the lossy cables in ExperimentSpec::faults. The
// goodput timeline is the sampler's "goodput_bps" series (2 ms grid by
// default), exported in the report's telemetry block; the engine turns the
// episode into cell metrics. The bulk flows intentionally outlive the
// deadline (the timeline measures the fabric, not flow arrivals), so every
// flow is reported unfinished.
//
// With --inject-trial-faults the bench doubles as the resilience layer's
// end-to-end exercise: three extra cells host a trial that throws once
// (healed by --retries), a trial that always throws, and a trial that
// hangs until the --trial-timeout watchdog fires — so the committed JSON
// sample carries a populated `errors` block with deterministic taxonomy
// entries next to the healthy timeline cells.
//
// Usage: bench_fault_recovery [--hosts=16] [--seed=1] [--fail-rate=0.05]
//                             [--flap-period=20] [--inject-trial-faults]
// Run with --help for flag semantics.
#include <atomic>
#include <chrono>
#include <memory>

#include "common.hpp"

using namespace pnet;

namespace {

/// The --inject-trial-faults cells: one flaky trial healed by --retries,
/// one deterministic failure, one hang caught by --trial-timeout. Error
/// `what` strings carry no wall-clock values, so the resulting report
/// (with --json-timing=0) stays byte-identical across runs and threads.
void add_injected_fault_cells(bench::Experiment& experiment,
                              std::uint64_t seed) {
  const auto cell_spec = [seed](const char* name) {
    exp::ExperimentSpec spec;
    spec.name = std::string("inject/") + name;
    spec.engine = exp::EngineKind::kCustom;
    spec.seed = seed;
    return spec;
  };
  const auto healthy = [](const exp::TrialContext& ctx) {
    exp::TrialResult r;
    r.flows_started = 1;
    r.flows_finished = 1;
    r.metrics["seed_lo"] = static_cast<double>(ctx.seed & 0xFFFF);
    return r;
  };

  // Throws on its first attempt only: with --retries >= 1 the rerun (same
  // seed) succeeds, so this cell proves the retry path and contributes a
  // clean trial to the report.
  auto attempts = std::make_shared<std::atomic<int>>(0);
  experiment.add(cell_spec("flaky-retried"),
                 [=](const exp::TrialContext& ctx) {
                   if (attempts->fetch_add(1) == 0) {
                     throw std::runtime_error(
                         "injected transient fault (first attempt)");
                   }
                   return healthy(ctx);
                 });

  // Always throws: lands in the errors block as kind=exception even with
  // retries (every attempt fails the same way).
  experiment.add(cell_spec("always-throws"),
                 [](const exp::TrialContext&) -> exp::TrialResult {
                   throw std::runtime_error("injected permanent fault");
                 });

  // Spins until the per-trial watchdog fires: lands as kind=timeout. The
  // wall cap keeps the bench finite if run without --trial-timeout.
  experiment.add(cell_spec("hangs-until-timeout"),
                 [=](const exp::TrialContext& ctx) {
                   const auto start = std::chrono::steady_clock::now();
                   while (!ctx.cancel.cancelled() &&
                          std::chrono::steady_clock::now() - start <
                              std::chrono::seconds(10)) {
                   }
                   exp::throw_if_cancelled(ctx.cancel);
                   return healthy(ctx);  // no watchdog armed: wall cap hit
                 });
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header(
      "Fault recovery: plane flap + lossy-cable episode, serial vs P-Net",
      flags,
      "bench_fault_recovery: goodput dip-and-recover under dynamic faults\n"
      "\n"
      "  --hosts=N         hosts in every network (default 16, all the\n"
      "                    pinned 8-switch Jellyfish holds; 64 on the\n"
      "                    derived shape with --scale=paper)\n"
      "  --seed=N          seed for the Jellyfish wiring, the permutation\n"
      "                    workload, and the lossy-cable draw (default 1)\n"
      "  --fail-rate=F     packet loss probability per degraded cable\n"
      "                    during the lossy episode, 0..1 (default 0.05)\n"
      "  --flap-period=MS  how long plane 0 stays down in the mid-run flap,\n"
      "                    milliseconds (default 20)\n"
      "  --inject-trial-faults  add three fault-injection cells (a flaky\n"
      "                    trial healed by --retries, a permanent throw,\n"
      "                    and a hang caught by --trial-timeout) so the\n"
      "                    JSON report exercises the errors block\n"
      "\n"
      "--controller-detect-delay is the link-status propagation delay of the\n"
      "timeline cells (0 = instantaneous oracle); the sweep pins its own.\n"
      "--controller itself exits 2 (every cell is host-local).\n");
  bench::reject_controller_flag(flags);
  const bool paper_scale = flags.paper_scale();
  const int hosts = flags.get_int("hosts", paper_scale ? 64 : 16);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_i64("seed", 1));
  control::ControllerConfig host_local = bench::parse_controller(flags);
  host_local.mode = control::ControllerMode::kHostLocal;
  exp::FaultSpec faults;
  faults.outage = exp::FaultSpec::Outage{
      .plane = 0,
      .at = 40 * units::kMillisecond,
      .down_for = static_cast<SimTime>(flags.get_double("flap-period", 20.0) *
                                       units::kMillisecond)};
  faults.lossy = exp::FaultSpec::LossyCables{
      .cables = 3,
      .at = 70 * units::kMillisecond,
      .duration = 15 * units::kMillisecond,
      .loss = flags.get_double("fail-rate", 0.05)};

  const topo::NetworkType types[] = {
      topo::NetworkType::kSerialLow,
      topo::NetworkType::kParallelHomogeneous,
      topo::NetworkType::kParallelHeterogeneous,
  };
  const char* names[] = {"serial-low", "par-hom", "par-het"};
  const double sweep_delays_ms[] = {0.0, 1.0, 5.0, 20.0};

  bench::Experiment experiment(flags, "fault_recovery",
                               /*sample_every_ms=*/2.0);
  const auto add_cell = [&](std::string name, topo::NetworkType type,
                            SimTime detect_delay) {
    exp::ExperimentSpec spec;
    spec.name = std::move(name);
    spec.topo = paper_scale
                    ? bench::make_spec(topo::TopoKind::kJellyfish, type,
                                       hosts, 4, util::job_seed(seed, 0))
                    : bench::pinned_jellyfish(type, hosts, seed);
    spec.policy.policy = core::RoutingPolicy::kRoundRobin;
    // Long bulk flows (one per permutation pair) that outlive the deadline,
    // so the timeline measures the fabric, not flow arrivals/departures.
    spec.workload.flow_bytes = 100 * units::kGB;
    spec.workload.start_jitter = 0;
    spec.seed = seed;
    spec.trials = experiment.trials(1);
    spec.deadline = 100 * units::kMillisecond;
    spec.controller = host_local;
    spec.controller.detect_delay = detect_delay;
    spec.faults = faults;
    experiment.add(std::move(spec));
  };
  for (std::size_t i = 0; i < std::size(types); ++i) {
    add_cell(std::string("timeline/") + names[i], types[i],
             host_local.detect_delay);
  }
  for (const double delay_ms : sweep_delays_ms) {
    add_cell("sweep/detect=" + format_double(delay_ms, 1) + "ms",
             topo::NetworkType::kParallelHomogeneous,
             static_cast<SimTime>(delay_ms * units::kMillisecond));
  }
  const bool inject = flags.get_bool("inject-trial-faults", false);
  if (inject) add_injected_fault_cells(experiment, seed);
  const auto results = experiment.run();

  const exp::FaultSpec::Outage& flap = *faults.outage;
  const exp::FaultSpec::LossyCables& lossy = *faults.lossy;
  std::printf("plane 0 down %.0f-%.0f ms; %d cables at %.0f%% loss "
              "%.0f-%.0f ms; detect delay %.1f ms\n\n",
              units::to_milliseconds(flap.at),
              units::to_milliseconds(flap.at + flap.down_for), lossy.cables,
              lossy.loss * 100.0, units::to_milliseconds(lossy.at),
              units::to_milliseconds(lossy.at + lossy.duration),
              units::to_milliseconds(host_local.detect_delay));

  // A cell whose every trial failed (one cut by --trial-timeout, say) has
  // no series and no metrics: its columns print "-". The timeline shows
  // each cell's first surviving trial.
  const auto series = [&](std::size_t i, const char* key) {
    const auto& trials = results[i].trials;
    if (trials.empty()) return std::vector<double>{};
    const auto it = trials.front().samples.find(key);
    return it == trials.front().samples.end() ? std::vector<double>{}
                                              : it->second;
  };
  const auto mean = [&](std::size_t i, const char* key) {
    return results[i].trials.empty()
               ? std::string("-")
               : format_double(results[i].metric(key).mean, 1);
  };

  TextTable timeline("Goodput timeline (Gb/s per bucket)",
                     {"t (ms)", "serial-low", "par-hom", "par-het"});
  std::vector<double> t_us;
  std::vector<std::vector<double>> goodput;
  for (std::size_t i = 0; i < std::size(types); ++i) {
    if (t_us.empty()) t_us = series(i, "tm/t_us");
    goodput.push_back(series(i, "tm/goodput_bps"));
  }
  for (std::size_t b = 1; b < t_us.size(); b += 2) {
    std::vector<std::string> row{format_double(t_us[b] / 1000.0, 0)};
    for (const auto& cell : goodput) {
      row.push_back(b < cell.size() ? format_double(cell[b] / units::kGbps, 1)
                                    : "-");
    }
    timeline.add_row(std::move(row));
  }
  timeline.print();

  TextTable report("Plane-flap episode recovery",
                   {"network", "baseline Gb/s", "dip Gb/s", "detect (ms)",
                    "recover (ms)", "pkts lost", "repaths"});
  for (std::size_t i = 0; i < std::size(types); ++i) {
    report.add_row({names[i], mean(i, "baseline_gbps"), mean(i, "dip_gbps"),
                    mean(i, "detect_ms"), mean(i, "recover_ms"),
                    mean(i, "packets_lost"), mean(i, "repaths")});
  }
  report.print();

  TextTable sweep("Detection-delay sweep (par-hom, same flap)",
                  {"detect delay (ms)", "recover (ms)"});
  for (std::size_t i = 0; i < std::size(sweep_delays_ms); ++i) {
    sweep.add_row({format_double(sweep_delays_ms[i], 1),
                   mean(std::size(types) + i, "recover_ms")});
  }
  sweep.print();

  if (inject) {
    TextTable injected("Injected-fault cells (resilience exercise)",
                       {"cell", "ok trials", "errors", "first error"});
    for (std::size_t i = std::size(types) + std::size(sweep_delays_ms);
         i < results.size(); ++i) {
      const auto& cell = results[i];
      injected.add_row(
          {cell.spec.name, std::to_string(cell.trials.size()),
           std::to_string(cell.errors.size()),
           cell.errors.empty() ? "-"
                               : exp::to_string(cell.errors.front().kind)});
    }
    injected.print();
  }

  std::printf(
      "The P-Nets lose ~1/4 of their goodput for about the detection delay\n"
      "and recover by repathing live flows onto the surviving planes; the\n"
      "serial network has nowhere to go and delivers ~0 for the entire\n"
      "outage (plus RTO-backoff tail after recovery). The lossy episode\n"
      "only dents goodput: retransmissions ride the same or other planes.\n");
  return experiment.finish();
}
