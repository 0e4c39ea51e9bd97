#include "analysis/recovery.hpp"

#include <algorithm>

namespace pnet::analysis {

void GoodputProbe::start(SimTime at) {
  last_bytes_ = delivered_bytes_();
  events_.schedule_at(at + bucket_width_, this);
}

void GoodputProbe::do_next_event() {
  const std::uint64_t bytes = delivered_bytes_();
  const double delta_bits = static_cast<double>(bytes - last_bytes_) * 8.0;
  last_bytes_ = bytes;
  samples_.push_back(
      {events_.now(), delta_bits / units::to_seconds(bucket_width_)});
  if (events_.now() + bucket_width_ <= until_) {
    events_.schedule_at(events_.now() + bucket_width_, this);
  }
}

std::vector<FaultEpisode> plane_episodes(
    const std::vector<sim::FaultInjector::AppliedEvent>& applied,
    const std::vector<std::pair<sim::FaultEvent, SimTime>>& detections) {
  std::vector<FaultEpisode> episodes;
  // Open episode per plane, as an index into `episodes` (-1 = none).
  std::vector<int> open;
  for (const auto& entry : applied) {
    const sim::FaultEvent& event = entry.event;
    if (static_cast<std::size_t>(event.plane) >= open.size()) {
      open.resize(static_cast<std::size_t>(event.plane) + 1, -1);
    }
    int& slot = open[static_cast<std::size_t>(event.plane)];
    if (event.kind == sim::FaultKind::kPlaneFail) {
      if (slot >= 0) continue;  // duplicate fail inside an open episode
      slot = static_cast<int>(episodes.size());
      FaultEpisode episode;
      episode.kind = event.kind;
      episode.plane = event.plane;
      episode.fail_at = event.at;
      // Stash the drop counter at failure; finalized on recovery.
      episode.packets_lost = entry.total_drops_at_apply;
      episodes.push_back(episode);
    } else if (event.kind == sim::FaultKind::kPlaneRecover) {
      if (slot < 0) continue;  // recovery without a fail in view
      FaultEpisode& episode = episodes[static_cast<std::size_t>(slot)];
      episode.recover_at = event.at;
      episode.packets_lost =
          entry.total_drops_at_apply - episode.packets_lost;
      slot = -1;
    }
  }
  // Episodes still open never recovered: loss attribution is unknown.
  for (int slot : open) {
    if (slot >= 0) episodes[static_cast<std::size_t>(slot)].packets_lost = 0;
  }
  // First detection of each episode's failure, by plane and fabric time.
  for (FaultEpisode& episode : episodes) {
    for (const auto& [event, seen_at] : detections) {
      if (event.kind == sim::FaultKind::kPlaneFail &&
          event.plane == episode.plane && event.at == episode.fail_at) {
        episode.detected_at = seen_at;
        break;
      }
    }
  }
  return episodes;
}

RecoveryReport analyze_episode(
    const std::vector<telemetry::Sampler::Sample>& samples,
    const FaultEpisode& episode, double recovered_fraction) {
  RecoveryReport report;
  report.packets_lost = episode.packets_lost;
  if (episode.detected_at >= 0) {
    report.time_to_detect = episode.detected_at - episode.fail_at;
  }

  // The outage window for dip purposes: until recovery, or to the end of
  // the series if the fault never recovered.
  SimTime outage_end = episode.recover_at;
  if (outage_end < 0) {
    outage_end = samples.empty() ? episode.fail_at : samples.back().t_end;
  }

  double baseline_sum = 0.0;
  int baseline_count = 0;
  bool dip_seen = false;
  for (const auto& sample : samples) {
    if (sample.t_end <= episode.fail_at) {
      baseline_sum += sample.value;
      ++baseline_count;
    } else if (sample.t_end <= outage_end) {
      if (!dip_seen || sample.value < report.dip_goodput_bps) {
        report.dip_goodput_bps = sample.value;
        dip_seen = true;
      }
    } else if (!dip_seen) {
      // Outage shorter than one bucket: the first bucket straddling it is
      // the best dip estimate available at this resolution.
      report.dip_goodput_bps = sample.value;
      dip_seen = true;
    }
  }
  if (baseline_count > 0) {
    report.baseline_goodput_bps = baseline_sum / baseline_count;
  }
  if (!dip_seen) report.dip_goodput_bps = report.baseline_goodput_bps;

  const double bar = recovered_fraction * report.baseline_goodput_bps;
  for (const auto& sample : samples) {
    if (sample.t_end <= episode.fail_at) continue;
    if (sample.value >= bar) {
      report.time_to_recover = sample.t_end - episode.fail_at;
      break;
    }
  }
  return report;
}

}  // namespace pnet::analysis
