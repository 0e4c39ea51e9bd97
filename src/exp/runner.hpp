// Deterministic parallel experiment runner: util::parallel_map over whole
// experiment grids, for both engines.
//
// A bench queues cells (ExperimentSpec + optional custom trial function);
// the runner resolves each cell's EngineKind to an exp::Engine, flattens
// every (cell, trial) pair into one job list, fans the jobs over OS
// threads via util::parallel_map, and reassembles CellResults in
// submission order. Each trial is fully self-contained — its own topology,
// simulator and Rng, seeded with util::job_seed(cell seed, trial index) —
// so merged results are bit-identical for any --threads value;
// tests/exp_test.cpp locks the property in for both engines.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exp/engine.hpp"
#include "exp/report.hpp"
#include "exp/spec.hpp"
#include "routing/route_cache.hpp"

namespace pnet::exp {

/// One queued experiment cell. With no fn, the spec's engine must be
/// kPacket or kFsim and exp::make_engine supplies the built-in trial body;
/// with a fn, the function owns the trial (LP solves, fault timelines,
/// cost models...) but still runs under the runner's seeding and fan-out.
struct Cell {
  ExperimentSpec spec;
  TrialFn fn;
};

class Runner {
 public:
  /// `threads`: worker threads for the (cell, trial) fan-out; 0 = all
  /// hardware threads.
  explicit Runner(int threads = 0) : threads_(threads) {}

  [[nodiscard]] int threads() const { return threads_; }

  /// Per-trial instrumentation request forwarded to every cell's engine
  /// via TrialContext::telemetry (off by default). Enabling the sampler
  /// or trace does not disturb the determinism contract: sampler series
  /// are pure functions of (spec, trial seed).
  void set_telemetry(const telemetry::Config& config) {
    telemetry_ = config;
  }
  [[nodiscard]] const telemetry::Config& telemetry() const {
    return telemetry_;
  }

  /// Per-trial wall-clock budget in seconds; <= 0 (default) disables the
  /// watchdog. A trial past its budget is cancelled cooperatively and
  /// filed as TrialError{kTimeout} (retried when retries() > 0).
  void set_trial_timeout(double seconds) { trial_timeout_s_ = seconds; }
  [[nodiscard]] double trial_timeout() const { return trial_timeout_s_; }

  /// Whole-run wall-clock deadline in seconds from run() entry; <= 0
  /// (default) disables. Trials cut off by it are TrialError{kCancelled}
  /// and never retried (the run is over).
  void set_run_deadline(double seconds) { run_deadline_s_ = seconds; }
  [[nodiscard]] double run_deadline() const { return run_deadline_s_; }

  /// Re-run budget for failed trials, with the same seed (determinism
  /// contract intact: a retry that succeeds produces the exact result the
  /// first attempt should have). Only kException and kTimeout retry —
  /// kInvariant is deterministic and kCancelled means the run is over.
  void set_retries(int retries) { retries_ = retries; }
  [[nodiscard]] int retries() const { return retries_; }

  /// Journals completed (cell, trial) results to `path` and, when the
  /// file already holds entries for these specs, resumes by skipping the
  /// finished work. Empty (default) disables. See exp/checkpoint.hpp.
  void set_checkpoint(std::string path) { checkpoint_ = std::move(path); }
  [[nodiscard]] const std::string& checkpoint() const { return checkpoint_; }

  /// Attaches the invariant auditor to every built-in trial; breaches
  /// surface as TrialError{kInvariant} (never retried).
  void set_audit(bool audit) { audit_ = audit; }
  [[nodiscard]] bool audit() const { return audit_; }

  /// Packet-engine shard workers per trial (see TrialContext::sim_threads).
  /// Orthogonal to `threads` (the trial fan-out); results are
  /// byte-identical across every sim_threads value.
  void set_sim_threads(int sim_threads) { sim_threads_ = sim_threads; }
  [[nodiscard]] int sim_threads() const { return sim_threads_; }

  /// Default control-plane option (the --controller flag) merged into every
  /// queued cell whose spec leaves controller.mode at kOff; cells that set
  /// their own mode win. The merge happens before validation, so the
  /// effective config participates in spec hashes, checkpoint keys, and
  /// report JSON exactly as if the bench had set it on the spec itself.
  void set_controller(const control::ControllerConfig& config) {
    controller_ = config;
  }
  [[nodiscard]] const control::ControllerConfig& controller() const {
    return controller_;
  }

  /// Runs every trial of every cell. Throws std::invalid_argument, before
  /// any trial runs, if any spec fails validation, a custom-engine cell
  /// lacks a function, or a fluid cell asks for telemetry it cannot record
  /// (exp::fluid_telemetry_problem).
  /// Per-trial failures do NOT throw: they are isolated into the owning
  /// cell's CellResult::errors (in trial order), healthy trials keep
  /// merging deterministically, and the caller decides whether a partial
  /// cell is fatal (bench --require-complete does). On glibc, the heap the
  /// trials freed is handed back to the OS before it returns.
  [[nodiscard]] std::vector<CellResult> run(
      const std::vector<Cell>& cells) const;

  /// Single-cell convenience.
  [[nodiscard]] CellResult run_cell(Cell cell) const;

 private:
  /// run() without the final heap trim: everything the trials used (route
  /// stores, engines, outcomes) is destroyed when it returns.
  [[nodiscard]] std::vector<CellResult> run_trials(
      const std::vector<Cell>& queued) const;

  int threads_;
  telemetry::Config telemetry_{};
  double trial_timeout_s_ = 0.0;
  double run_deadline_s_ = 0.0;
  int retries_ = 0;
  std::string checkpoint_;
  bool audit_ = false;
  int sim_threads_ = 1;
  control::ControllerConfig controller_{};
};

}  // namespace pnet::exp
