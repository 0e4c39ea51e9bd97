#include "workload/traces.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace pnet::workload {

namespace {

constexpr util::EnumName<Trace> kTraceNames[] = {
    {Trace::kWebSearch, "websearch"},
    {Trace::kDataMining, "datamining"},
    {Trace::kWebServer, "webserver"},
    {Trace::kCache, "cache"},
    {Trace::kHadoop, "hadoop"},
};

}  // namespace

util::EnumNames<Trace> name_table(Trace) { return kTraceNames; }
std::string to_string(Trace trace) { return util::to_name(trace); }

FlowSizeDistribution::FlowSizeDistribution(
    std::vector<std::pair<double, double>> points)
    : points_(std::move(points)) {
  if (points_.size() < 2) {
    throw std::invalid_argument("distribution needs >= 2 anchor points");
  }
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (points_[i].first <= points_[i - 1].first ||
        points_[i].second <= points_[i - 1].second) {
      throw std::invalid_argument("CDF anchors must be strictly increasing");
    }
  }
  if (points_.back().second != 1.0) {
    throw std::invalid_argument("CDF must end at probability 1");
  }
}

const FlowSizeDistribution& FlowSizeDistribution::of(Trace trace) {
  // Anchor points (bytes, cumulative probability). See the header's
  // substitution note; anchors follow the figures of [6], [22], [35].
  static const FlowSizeDistribution websearch({
      {5'000, 0.10},   {10'000, 0.15},   {20'000, 0.28},
      {30'000, 0.40},  {50'000, 0.52},   {80'000, 0.58},
      {130'000, 0.62}, {300'000, 0.66},  {670'000, 0.70},
      {1.3e6, 0.78},   {3.0e6, 0.87},    {6.7e6, 0.92},
      {15e6, 0.96},    {30e6, 1.0},
  });
  static const FlowSizeDistribution datamining({
      {80, 0.02},      {200, 0.10},      {300, 0.28},
      {500, 0.40},     {1'000, 0.50},    {2'000, 0.60},
      {10'000, 0.69},  {50'000, 0.74},   {200'000, 0.78},
      {1e6, 0.82},     {5e6, 0.88},      {20e6, 0.92},
      {100e6, 0.96},   {1e9, 1.0},
  });
  static const FlowSizeDistribution webserver({
      {100, 0.08},     {300, 0.25},      {1'000, 0.55},
      {3'000, 0.72},   {10'000, 0.88},   {30'000, 0.95},
      {100'000, 0.98}, {1e6, 0.999},     {5e6, 1.0},
  });
  static const FlowSizeDistribution cache({
      {300, 0.05},     {1'000, 0.12},    {3'000, 0.28},
      {10'000, 0.55},  {30'000, 0.72},   {100'000, 0.85},
      {500'000, 0.93}, {1e6, 0.96},      {5e6, 0.99},
      {10e6, 1.0},
  });
  static const FlowSizeDistribution hadoop({
      {150, 0.08},     {500, 0.25},      {1'000, 0.40},
      {5'000, 0.58},   {20'000, 0.75},   {100'000, 0.90},
      {500'000, 0.94}, {2e6, 0.97},      {10e6, 0.99},
      {100e6, 1.0},
  });
  switch (trace) {
    case Trace::kWebSearch: return websearch;
    case Trace::kDataMining: return datamining;
    case Trace::kWebServer: return webserver;
    case Trace::kCache: return cache;
    case Trace::kHadoop: return hadoop;
  }
  throw std::invalid_argument("unknown trace");
}

FlowSizeDistribution FlowSizeDistribution::from_csv(std::istream& in) {
  std::vector<std::pair<double, double>> points;
  std::string line;
  while (std::getline(in, line)) {
    // Trim leading whitespace; skip comments and blanks.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    const auto comma = line.find(',', first);
    if (comma == std::string::npos) {
      throw std::invalid_argument("CSV line missing comma: " + line);
    }
    try {
      points.emplace_back(std::stod(line.substr(first, comma - first)),
                          std::stod(line.substr(comma + 1)));
    } catch (const std::exception&) {
      throw std::invalid_argument("malformed CSV line: " + line);
    }
  }
  return FlowSizeDistribution(std::move(points));
}

std::uint64_t FlowSizeDistribution::sample(Rng& rng,
                                           std::uint64_t cap_bytes) const {
  const double u = rng.next_double();
  double bytes;
  if (u <= points_.front().second) {
    bytes = points_.front().first;
  } else {
    auto it = std::lower_bound(
        points_.begin(), points_.end(), u,
        [](const auto& pt, double p) { return pt.second < p; });
    assert(it != points_.end() && it != points_.begin());
    const auto& [x1, p1] = *std::prev(it);
    const auto& [x2, p2] = *it;
    // Log-linear interpolation in size.
    const double t = (u - p1) / (p2 - p1);
    bytes = std::exp(std::log(x1) + t * (std::log(x2) - std::log(x1)));
  }
  auto result = static_cast<std::uint64_t>(std::max(bytes, 1.0));
  if (cap_bytes > 0) result = std::min(result, cap_bytes);
  return result;
}

double FlowSizeDistribution::cdf(double bytes) const {
  if (bytes <= points_.front().first) {
    return bytes < points_.front().first ? 0.0 : points_.front().second;
  }
  if (bytes >= points_.back().first) return 1.0;
  auto it = std::lower_bound(
      points_.begin(), points_.end(), bytes,
      [](const auto& pt, double b) { return pt.first < b; });
  const auto& [x2, p2] = *it;
  const auto& [x1, p1] = *std::prev(it);
  const double t = (std::log(bytes) - std::log(x1)) /
                   (std::log(x2) - std::log(x1));
  return p1 + t * (p2 - p1);
}

double FlowSizeDistribution::mean_bytes() const {
  // Expected value of the log-linear piecewise distribution, computed by
  // numerically integrating each segment (64 steps each is plenty for the
  // smooth segments we use).
  double mean = points_.front().first * points_.front().second;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const auto& [x1, p1] = points_[i - 1];
    const auto& [x2, p2] = points_[i];
    constexpr int kSteps = 64;
    for (int s = 0; s < kSteps; ++s) {
      const double t = (static_cast<double>(s) + 0.5) / kSteps;
      const double x =
          std::exp(std::log(x1) + t * (std::log(x2) - std::log(x1)));
      mean += x * (p2 - p1) / kSteps;
    }
  }
  return mean;
}

}  // namespace pnet::workload
