// Periodic time-series capture with bounded memory.
//
// A Sampler owns one shared sampling grid (every `interval` of simulated
// time from start()) and any number of named series over it. Two kinds:
//   kGauge — the probe's value at the grid point (queue depth, active
//            flows, an allocator rate);
//   kRate  — the probe is a cumulative counter; the series holds
//            delta * scale / interval_seconds per grid bucket (goodput in
//            bits/s from a delivered-bytes counter with scale = 8).
//
// Memory is bounded by pairwise downsampling: when the buffers reach
// `capacity` points, adjacent pairs merge (bucket value = pair mean, bucket
// end = the later end) and the grid interval doubles, so a run of any
// length costs O(capacity) per series and the series always covers the
// whole run. Mean-preserving for gauges; integral-preserving for rates
// (equal-width buckets make the pair mean the merged bucket's true rate).
//
// Who advances the grid: the packet engine schedules a
// sim::TelemetryDriver on the EventQueue; fsim advances inside its
// allocation-epoch loop (grid points become epoch boundaries, so rates are
// exact). Everything here is deterministic — a pure function of the probe
// values at grid points — which is what lets sampler series ride in the
// bit-identical part of experiment reports.
//
// Downsampling contract (what readers may rely on):
//   * Bucket i covers the half-open window (times()[i] - interval(),
//     times()[i]] — bucket END times are stored, never starts.
//   * All series share one grid; after any number of downsampling rounds
//     every live bucket still has the same width (`interval()`), so
//     cross-series comparisons at a bucket index are always apples to
//     apples.
//   * A merge replaces adjacent pairs with their mean and keeps the later
//     end time. Gauge means stay means; rate means stay exact rates over
//     the doubled window (equal-width buckets). Readers must therefore
//     treat a bucket value as an average over (t_end - interval(), t_end],
//     not an instantaneous point — a merge can retroactively widen buckets
//     a reader saw before.
//   * Bucket end times are strictly increasing; interval() only ever grows.
//
// Reading: consumers on the simulation thread (e.g. the control plane)
// and end-of-run analyses of one named series use read() — bounded
// iteration over the most recent samples of one series, filtered to
// buckets that end after a watermark. Direct buffer access via
// times()/values() exposes the whole (possibly re-merged) history and
// invites O(run-length) rescans; it serves end-of-run serialization
// (report folding), which wants every series in full.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace pnet::telemetry {

class Sampler {
 public:
  /// Returned by next_sample_at() when disabled or not started.
  static constexpr SimTime kNoSample = std::numeric_limits<SimTime>::max();

  struct Config {
    /// Grid spacing; <= 0 disables the sampler entirely.
    SimTime interval = 0;
    /// Points per series before pairwise downsampling halves the buffers
    /// (rounded down to even, minimum 2).
    std::size_t capacity = 512;
  };

  enum class Kind : std::uint8_t { kGauge, kRate };

  /// Reads one probe value; called only at grid points, on the simulation
  /// thread.
  using Probe = std::function<double()>;

  // (Two constructors instead of one defaulted argument: a nested class's
  // member initializers are not usable in a default argument until the
  // enclosing class is complete.)
  Sampler() : Sampler(Config{}) {}
  explicit Sampler(Config config);

  [[nodiscard]] bool enabled() const { return config_.interval > 0; }
  [[nodiscard]] bool started() const { return started_; }

  /// Registers a series; call before start(). `scale` multiplies the
  /// per-second delta of kRate series (8.0 turns bytes into bits/s) and is
  /// ignored for gauges. Returns the series index.
  std::size_t add_series(std::string name, Kind kind, Probe probe,
                         double scale = 1.0);

  /// Baselines rate series and arms the grid: the first capture happens at
  /// `at` + interval.
  void start(SimTime at);

  /// The next grid point, or kNoSample when disabled/not started.
  [[nodiscard]] SimTime next_sample_at() const {
    return started_ ? next_ : kNoSample;
  }

  /// Captures every grid point <= `now` (one bucket per point, in order).
  void advance(SimTime now);

  /// Bucket end times, shared by all series. Bucket i covers
  /// (times()[i] - interval(), times()[i]].
  [[nodiscard]] const std::vector<SimTime>& times() const { return times_; }
  /// Current grid spacing: config interval x 2^(downsampling rounds).
  [[nodiscard]] SimTime interval() const { return interval_; }
  [[nodiscard]] std::size_t num_series() const { return series_.size(); }
  [[nodiscard]] const std::string& name(std::size_t i) const {
    return series_[i].name;
  }
  [[nodiscard]] Kind kind(std::size_t i) const { return series_[i].kind; }
  [[nodiscard]] const std::vector<double>& values(std::size_t i) const {
    return series_[i].values;
  }

  /// One bucket handed to a read() visitor. `t_end` is the bucket end on
  /// the shared grid; the bucket covers (t_end - interval(), t_end].
  struct Sample {
    SimTime t_end = 0;
    double value = 0.0;
  };

  using SampleVisitor = std::function<void(const Sample&)>;

  /// Bounded pull over one series: visits, oldest first, the buckets whose
  /// end time is strictly after `after`, keeping only the `max_points` most
  /// recent of them. Returns the number of buckets visited (0 for an
  /// unknown series, a never-started sampler, or when nothing new landed
  /// past the watermark). Because downsampling can merge a bucket the
  /// caller already saw into a later-ending one, callers must treat
  /// revisited windows as replacements, not duplicates; using the last
  /// visited `t_end` as the next `after` is the intended idiom and never
  /// re-delivers an unmerged bucket.
  std::size_t read(std::string_view name, SimTime after,
                   std::size_t max_points, const SampleVisitor& visit) const;

  /// Same, by series index (no name lookup on the hot path).
  std::size_t read(std::size_t series, SimTime after, std::size_t max_points,
                   const SampleVisitor& visit) const;

 private:
  void capture(SimTime t);
  void downsample();

  struct Series {
    std::string name;
    Kind kind = Kind::kGauge;
    Probe probe;
    double scale = 1.0;
    double last_raw = 0.0;  // kRate: probe value at the previous grid point
    std::vector<double> values;
  };

  Config config_;
  SimTime interval_ = 0;
  bool started_ = false;
  SimTime next_ = 0;
  std::vector<SimTime> times_;
  std::vector<Series> series_;
};

}  // namespace pnet::telemetry
