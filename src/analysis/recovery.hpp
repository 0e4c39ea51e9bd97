// Recovery statistics for dynamic fault experiments: goodput-vs-time
// sampling plus per-episode time-to-detect / time-to-recover / packets-lost
// accounting.
//
// The §3.4 resilience claim is temporal — a P-Net with N planes should show
// a 1/N goodput dip that closes as soon as hosts learn of the failure,
// while a serial network's goodput collapses for the whole outage. These
// helpers turn a FaultInjector's applied-event log and a running byte
// counter into exactly those numbers. Works on raw sim types only
// (FaultEvent, (event, time) detection pairs), so it stays below core in
// the layering: core::HealthMonitor::detections() plugs in directly.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/faults.hpp"
#include "telemetry/sampler.hpp"

namespace pnet::analysis {

/// Samples a cumulative delivered-bytes counter on a fixed grid and turns
/// the deltas into a goodput-vs-time series, in the sampler's bucket type:
/// `value` is the goodput in bits/s over (t_end - bucket_width, t_end].
/// Point it at sim::FlowFactory::total_delivered_bytes (or any monotone
/// counter). The harness's telemetry::Sampler records the same series
/// ("goodput_bps"); this probe stays as the reference the tests compare it
/// against.
class GoodputProbe : public sim::EventSource {
 public:
  GoodputProbe(sim::EventQueue& events,
               std::function<std::uint64_t()> delivered_bytes,
               SimTime bucket_width, SimTime until)
      : events_(events), delivered_bytes_(std::move(delivered_bytes)),
        bucket_width_(bucket_width), until_(until) {}

  /// Begins sampling: one bucket every `bucket_width` from `at` to `until`.
  void start(SimTime at);

  void do_next_event() override;

  [[nodiscard]] const std::vector<telemetry::Sampler::Sample>& samples()
      const {
    return samples_;
  }
  [[nodiscard]] SimTime bucket_width() const { return bucket_width_; }

 private:
  sim::EventQueue& events_;
  std::function<std::uint64_t()> delivered_bytes_;
  SimTime bucket_width_;
  SimTime until_;
  std::uint64_t last_bytes_ = 0;
  std::vector<telemetry::Sampler::Sample> samples_;
};

/// One fault episode on the fabric timeline, in injection time.
struct FaultEpisode {
  sim::FaultKind kind = sim::FaultKind::kPlaneFail;
  int plane = 0;
  SimTime fail_at = 0;
  /// -1 if the fault never recovered within the run.
  SimTime recover_at = -1;
  /// When the hosts learned of the failure (-1 if never detected).
  SimTime detected_at = -1;
  /// Network-wide drops attributed to the episode: the fabric drop counter
  /// delta between fault apply and recovery apply.
  std::uint64_t packets_lost = 0;
};

/// Pairs kPlaneFail/kPlaneRecover events per plane out of a FaultInjector's
/// applied log, attaching drop deltas and (optionally) host detection times
/// — pass core::HealthMonitor::detections() or {}.
std::vector<FaultEpisode> plane_episodes(
    const std::vector<sim::FaultInjector::AppliedEvent>& applied,
    const std::vector<std::pair<sim::FaultEvent, SimTime>>& detections);

/// The headline recovery numbers for one episode against a goodput series.
struct RecoveryReport {
  /// Mean goodput over the buckets that ended before the fault hit.
  double baseline_goodput_bps = 0.0;
  /// Minimum goodput over buckets overlapping the outage.
  double dip_goodput_bps = 0.0;
  /// detected_at - fail_at; -1 when undetected.
  SimTime time_to_detect = -1;
  /// First bucket end after fail_at where goodput climbs back above
  /// `recovered_fraction` x baseline, minus fail_at; -1 if never.
  SimTime time_to_recover = -1;
  std::uint64_t packets_lost = 0;
};

/// `samples` is a goodput series in bits/s, as telemetry::Sampler::read
/// hands out the "goodput_bps" buckets.
RecoveryReport analyze_episode(
    const std::vector<telemetry::Sampler::Sample>& samples,
    const FaultEpisode& episode, double recovered_fraction = 0.9);

}  // namespace pnet::analysis
