// Structured experiment results: per-trial metrics, per-cell merges, and
// the schema-versioned JSON report every bench can emit next to its
// TextTables (--json=PATH).
//
// Determinism contract: everything except the `runtime` blocks is a pure
// function of the ExperimentSpec (trials merge in trial order, maps
// iterate in key order, doubles print shortest-round-trip), so
// Report::to_json(/*with_runtime=*/false) is byte-identical across
// repeated runs and across --threads values. Wall-clock and events/sec
// live only in the runtime blocks, which with_runtime=false omits —
// that is what the CI bit-identity diff and the ctest determinism cases
// compare.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/spec.hpp"
#include "telemetry/trace.hpp"

namespace pnet::exp {

/// Current JSON report schema. Bump when the report layout changes shape
/// (adding optional fields does not count).
inline constexpr int kReportSchemaVersion = 1;

/// Summary statistics of one sample set, for figure series and reports.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double median = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

[[nodiscard]] Summary summarize(const std::vector<double>& samples);

/// Why a trial produced no result. The taxonomy is part of the report
/// schema (serialized as strings, see to_string) and of the retry policy:
/// kException and kTimeout are retriable (environmental), kInvariant is
/// not (deterministic — the same seed breaks the same law again), and
/// kCancelled means the whole run's deadline fired, so retrying is moot.
enum class TrialErrorKind : std::uint8_t {
  /// The trial function threw a std::exception (or anything else).
  kException,
  /// The per-trial wall-clock budget (--trial-timeout) expired.
  kTimeout,
  /// The run-level deadline or an external cancel stopped the trial.
  kCancelled,
  /// The invariant auditor found a broken conservation law.
  kInvariant,
};

[[nodiscard]] const char* to_string(TrialErrorKind kind);

/// One failed trial, as reported in the cell's `errors` block. `what`
/// must be deterministic (no wall-clock values) so error-bearing reports
/// still diff byte-identically across runs and --threads values.
struct TrialError {
  TrialErrorKind kind = TrialErrorKind::kException;
  std::string what;
  int cell = 0;
  int trial = 0;
  std::uint64_t seed = 0;
};

/// Thrown out of an engine when the trial's CancelToken fired mid-run;
/// carries which taxonomy kind the token's reason maps to (kTimeout for
/// the per-trial watchdog, kCancelled for the run deadline).
class TrialCancelled : public std::runtime_error {
 public:
  TrialCancelled(TrialErrorKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  [[nodiscard]] TrialErrorKind kind() const { return kind_; }

 private:
  TrialErrorKind kind_;
};

/// What one trial of one cell produced. Custom trial functions fill in
/// whatever applies; the built-in engines fill everything. `wall_s` and
/// `runtime` are the only fields allowed to differ between identical runs
/// — everything else must be a pure function of (spec, trial seed).
struct TrialResult {
  /// Flow completion times in microseconds, the primary sample set.
  std::vector<double> fct_us;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_finished = 0;
  double delivered_bytes = 0.0;
  /// Simulated time elapsed, seconds.
  double sim_seconds = 0.0;
  /// Engine events processed (EventQueue dispatches / fluid admissions +
  /// completions); events / wall_s is the runner throughput metric.
  std::uint64_t events = 0;
  /// Named scalar metrics (deterministic; merged across trials by key).
  std::map<std::string, double> metrics;
  /// Named sample sets beyond fct_us (e.g. a goodput timeline).
  std::map<std::string, std::vector<double>> samples;
  /// Non-deterministic extras (sub-measured wall-clocks, speedups...).
  /// Reported only in the runtime block.
  std::map<std::string, double> runtime;
  /// Wall-clock of the trial, filled by the runner.
  double wall_s = 0.0;
  /// Span/instant events recorded by the trial's telemetry, when tracing
  /// was requested. Never part of to_json — exported separately by
  /// Report::write_trace.
  std::shared_ptr<const telemetry::Trace> trace;

  [[nodiscard]] std::uint64_t unfinished_flows() const {
    return flows_started - flows_finished;
  }
};

/// One cell's spec plus its trials (in trial order) and merged views.
struct CellResult {
  ExperimentSpec spec;
  std::vector<TrialResult> trials;
  /// Trials that produced no result, in trial order. Healthy trials stay
  /// in `trials` (still in trial order), so merged metrics cover exactly
  /// the surviving work. Serialized as the cell's `errors` JSON block —
  /// emitted only when non-empty, so clean-run reports are unchanged.
  std::vector<TrialError> errors;
  /// Cell-level non-deterministic extras (e.g. the shared route cache's
  /// hit/miss/compute-time counters, which aggregate across trials).
  /// Reported only in the cell's runtime block.
  std::map<std::string, double> runtime;

  /// All trials' FCT samples concatenated in trial order.
  [[nodiscard]] std::vector<double> merged_fct_us() const;
  [[nodiscard]] Summary fct() const { return summarize(merged_fct_us()); }
  [[nodiscard]] std::vector<double> merged_samples(
      const std::string& key) const;
  /// Per-trial values of a scalar metric, in trial order.
  [[nodiscard]] std::vector<double> metric_values(
      const std::string& key) const;
  /// Summary of a scalar metric across trials.
  [[nodiscard]] Summary metric(const std::string& key) const {
    return summarize(metric_values(key));
  }

  [[nodiscard]] std::uint64_t flows_started() const;
  [[nodiscard]] std::uint64_t flows_finished() const;
  [[nodiscard]] std::uint64_t unfinished_flows() const {
    return flows_started() - flows_finished();
  }
  [[nodiscard]] double delivered_bytes() const;
  [[nodiscard]] double sim_seconds() const;
  [[nodiscard]] std::uint64_t events() const;
  /// Sum of trial wall-clocks (what the trials cost, not elapsed time).
  [[nodiscard]] double wall_s() const;
  [[nodiscard]] double events_per_sec() const;
};

/// The whole bench run: cells in submission order plus run-level runtime.
class Report {
 public:
  explicit Report(std::string bench_name) : bench_(std::move(bench_name)) {}

  void add(CellResult cell) { cells_.push_back(std::move(cell)); }
  [[nodiscard]] const std::vector<CellResult>& cells() const {
    return cells_;
  }
  [[nodiscard]] const std::string& bench() const { return bench_; }

  [[nodiscard]] std::uint64_t total_unfinished_flows() const;
  /// Failed trials across every cell (--require-complete's other check).
  [[nodiscard]] std::uint64_t total_trial_errors() const;

  /// Elapsed wall-clock, runner thread count, and packet-engine shard
  /// worker count of the runner invocation(s), for the run-level runtime
  /// block. `sim_threads` lives here (not in any spec) so it can never
  /// perturb canonical (--json without runtime) report bytes.
  void record_runtime(double elapsed_s, int threads, int sim_threads = 1) {
    elapsed_s_ += elapsed_s;
    threads_ = threads;
    sim_threads_ = sim_threads;
  }

  /// The JSON document. with_runtime=false omits every wall-clock-derived
  /// field, making the output a pure function of the specs + seeds.
  [[nodiscard]] std::string to_json(bool with_runtime) const;

  /// Writes to_json(with_runtime) to `path` ("-" = stdout). Returns false
  /// (with a message on stderr) if the file cannot be written.
  bool write_json(const std::string& path, bool with_runtime) const;

  /// Exports every trial trace in the report: Chrome trace_event JSON
  /// (one pid lane per cell, one tid per trial), or the compact binary
  /// format when `path` ends in ".bin" (all traces merged). Returns false
  /// on write failure; an empty report writes a valid empty trace.
  bool write_trace(const std::string& path) const;

 private:
  std::string bench_;
  std::vector<CellResult> cells_;
  double elapsed_s_ = 0.0;
  int threads_ = 0;
  int sim_threads_ = 1;
};

}  // namespace pnet::exp
