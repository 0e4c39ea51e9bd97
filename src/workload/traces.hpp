// Flow-size distributions of the published datacenter traces used in
// section 5.3 / Fig 13a:
//   * Websearch  — DCTCP, Alizadeh et al., SIGCOMM'10 [6]
//   * Datamining — VL2, Greenberg et al., SIGCOMM'09 [22]
//   * Webserver / Cache / Hadoop — Facebook, Roy et al., SIGCOMM'15 [35]
//
// SUBSTITUTION NOTE (see DESIGN.md): the paper's artifact ships CSV CDFs
// captured from the original papers' figures. We embed piecewise CDFs with
// the well-known anchor points of those distributions instead and
// interpolate log-linearly in flow size between anchors. The experiments
// only consume the sampled sizes, so matching the mice/elephant mix is what
// preserves behaviour.
#pragma once

#include <cstdint>
#include <istream>
#include <string>
#include <utility>
#include <vector>

#include "util/enum_names.hpp"
#include "util/rng.hpp"

namespace pnet::workload {

enum class Trace : std::uint8_t {
  kWebSearch,
  kDataMining,
  kWebServer,
  kCache,
  kHadoop,
};

inline constexpr Trace kAllTraces[] = {Trace::kWebSearch, Trace::kDataMining,
                                       Trace::kWebServer, Trace::kCache,
                                       Trace::kHadoop};

[[nodiscard]] std::string to_string(Trace trace);
[[nodiscard]] util::EnumNames<Trace> name_table(Trace);

class FlowSizeDistribution {
 public:
  /// `points` are (size_bytes, cumulative_probability), strictly increasing
  /// in both coordinates, last probability 1.0.
  explicit FlowSizeDistribution(
      std::vector<std::pair<double, double>> points);

  /// The published distribution for `trace`.
  static const FlowSizeDistribution& of(Trace trace);

  /// Loads a distribution from CSV lines of "size_bytes,cumulative_prob"
  /// (the paper artifact's captured-CDF format). Lines starting with '#'
  /// and blank lines are skipped. Throws std::invalid_argument on malformed
  /// input or a non-monotone CDF.
  static FlowSizeDistribution from_csv(std::istream& in);

  /// Inverse-transform sample, log-linear between anchors. `cap_bytes`
  /// truncates the heavy tail for scaled-down runs (0 = no cap).
  [[nodiscard]] std::uint64_t sample(Rng& rng,
                                     std::uint64_t cap_bytes = 0) const;

  /// CDF value at `bytes` (for printing Fig 13a).
  [[nodiscard]] double cdf(double bytes) const;

  [[nodiscard]] double mean_bytes() const;
  [[nodiscard]] const std::vector<std::pair<double, double>>& points() const {
    return points_;
  }

 private:
  std::vector<std::pair<double, double>> points_;
};

}  // namespace pnet::workload
