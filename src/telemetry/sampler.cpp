#include "telemetry/sampler.hpp"

#include <algorithm>
#include <cassert>

namespace pnet::telemetry {

Sampler::Sampler(Config config) : config_(config) {
  if (config_.capacity < 2) config_.capacity = 2;
  config_.capacity &= ~std::size_t{1};  // pairwise merge needs even
  interval_ = config_.interval;
}

std::size_t Sampler::add_series(std::string name, Kind kind, Probe probe,
                                double scale) {
  assert(!started_ && "register series before start()");
  Series series;
  series.name = std::move(name);
  series.kind = kind;
  series.probe = std::move(probe);
  series.scale = scale;
  series_.push_back(std::move(series));
  return series_.size() - 1;
}

void Sampler::start(SimTime at) {
  if (!enabled() || started_) return;
  for (Series& series : series_) {
    if (series.kind == Kind::kRate) series.last_raw = series.probe();
    series.values.reserve(config_.capacity);
  }
  times_.reserve(config_.capacity);
  next_ = at + interval_;
  started_ = true;
}

void Sampler::advance(SimTime now) {
  if (!started_) return;
  while (next_ <= now) capture(next_);
}

void Sampler::capture(SimTime t) {
  times_.push_back(t);
  const double seconds = units::to_seconds(interval_);
  for (Series& series : series_) {
    double v = series.probe();
    if (series.kind == Kind::kRate) {
      const double delta = v - series.last_raw;
      series.last_raw = v;
      v = delta * series.scale / seconds;
    }
    series.values.push_back(v);
  }
  if (times_.size() >= config_.capacity) downsample();
  next_ = t + interval_;
}

void Sampler::downsample() {
  const std::size_t half = times_.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    times_[i] = times_[2 * i + 1];  // merged bucket ends where the pair did
  }
  times_.resize(half);
  for (Series& series : series_) {
    auto& v = series.values;
    for (std::size_t i = 0; i < half; ++i) {
      v[i] = (v[2 * i] + v[2 * i + 1]) / 2.0;
    }
    v.resize(half);
  }
  interval_ *= 2;
}

std::size_t Sampler::read(std::string_view name, SimTime after,
                          std::size_t max_points,
                          const SampleVisitor& visit) const {
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (series_[i].name == name) return read(i, after, max_points, visit);
  }
  return 0;
}

std::size_t Sampler::read(std::size_t series, SimTime after,
                          std::size_t max_points,
                          const SampleVisitor& visit) const {
  if (series >= series_.size() || max_points == 0) return 0;
  // End times are strictly increasing: binary-search the watermark, then
  // clamp to the `max_points` most recent buckets past it.
  const auto begin_it =
      std::upper_bound(times_.begin(), times_.end(), after);
  std::size_t begin = static_cast<std::size_t>(begin_it - times_.begin());
  const std::size_t available = times_.size() - begin;
  if (available > max_points) begin = times_.size() - max_points;
  const std::vector<double>& values = series_[series].values;
  for (std::size_t i = begin; i < times_.size(); ++i) {
    visit(Sample{times_[i], values[i]});
  }
  return times_.size() - begin;
}

}  // namespace pnet::telemetry
