// Unit tests for the util substrate: units, ids, rng, stats, flags, tables.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "util/flags.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace pnet {
namespace {

using namespace pnet::units;

TEST(Units, SerializationDelayMatchesPaperNumbers) {
  // Section 5.2.1: "at 100G, MTU-sized packets only take
  // 1500B/100Gb/s = 120ns".
  EXPECT_EQ(serialization_delay(1500, 100e9), 120 * kNanosecond);
  // "at 400G, it's only 1/4 of that".
  EXPECT_EQ(serialization_delay(1500, 400e9), 30 * kNanosecond);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_milliseconds(10 * kMillisecond), 10.0);
  EXPECT_DOUBLE_EQ(to_microseconds(kMicrosecond / 2), 0.5);
}

TEST(Units, LargeFlowFitsInClock) {
  // 1 GB at 100 Gb/s = 80 ms; must be nowhere near overflow.
  const SimTime t = serialization_delay(1 * kGB, 100e9);
  EXPECT_EQ(t, 80 * kMillisecond);
}

TEST(Ids, StrongTypesCompareAndHash) {
  NodeId a{3};
  NodeId b{3};
  NodeId c{4};
  EXPECT_EQ(a, b);
  EXPECT_LT(a, c);
  EXPECT_FALSE(NodeId{}.valid());
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(std::hash<NodeId>{}(a), std::hash<NodeId>{}(b));
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowIsInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::vector<int> buckets(10, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++buckets[static_cast<std::size_t>(v)];
  }
  for (int count : buckets) {
    EXPECT_NEAR(count, kN / 10, kN / 100);  // within 10% relative
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DerangementHasNoFixedPoint) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const auto d = rng.derangement(17);
    std::vector<bool> seen(17, false);
    for (int i = 0; i < 17; ++i) {
      EXPECT_NE(d[static_cast<std::size_t>(i)], i);
      seen[static_cast<std::size_t>(d[static_cast<std::size_t>(i)])] = true;
    }
    for (bool s : seen) EXPECT_TRUE(s);  // it is a permutation
  }
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(5);
  const auto p = rng.permutation(100);
  std::vector<bool> seen(100, false);
  for (int v : p) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 100);
    EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = true;
  }
}

TEST(Rng, Mix64IsStable) {
  // ECMP decisions must be identical across runs and platforms.
  EXPECT_EQ(mix64(0x1234), mix64(0x1234));
  EXPECT_NE(mix64(1), mix64(2));
}

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.5);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 9.1);
}

TEST(Stats, PercentilesMatchSingleCalls) {
  std::vector<double> v{5, 1, 9, 3, 7};
  const auto ps = percentiles(v, {0, 50, 99});
  EXPECT_DOUBLE_EQ(ps[0], percentile(v, 0));
  EXPECT_DOUBLE_EQ(ps[1], percentile(v, 50));
  EXPECT_DOUBLE_EQ(ps[2], percentile(v, 99));
}

TEST(Stats, CdfRoundTrip) {
  const auto cdf = Cdf::from_samples({1, 1, 2, 3, 3, 3, 10});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_NEAR(cdf.at(1.0), 2.0 / 7.0, 1e-12);
  EXPECT_NEAR(cdf.at(3.0), 6.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(99.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 3.0);
}

TEST(Stats, CdfResampleKeepsEndpoints) {
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) samples.push_back(i);
  const auto cdf = Cdf::from_samples(samples);
  const auto small = cdf.resampled(11);
  ASSERT_LE(small.points.size(), 11u);
  EXPECT_DOUBLE_EQ(small.points.front().first, 0.0);
  EXPECT_DOUBLE_EQ(small.points.back().first, 999.0);
}

TEST(Stats, PercentileEdgeCases) {
  // Empty sample: documented 0.0 (benches can summarize failed runs).
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 100), 0.0);
  const auto empty = percentiles({}, {0, 50, 100});
  ASSERT_EQ(empty.size(), 3u);
  for (double v : empty) EXPECT_DOUBLE_EQ(v, 0.0);

  // A single sample is every percentile.
  EXPECT_DOUBLE_EQ(percentile({7.5}, 0), 7.5);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 50), 7.5);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 100), 7.5);

  // p = 0 / 100 are exactly min / max, no interpolation overshoot.
  std::vector<double> v{3, 1, 2};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 3.0);
}

TEST(Stats, CdfEdgeCases) {
  const auto empty = Cdf::from_samples({});
  EXPECT_TRUE(empty.points.empty());
  EXPECT_DOUBLE_EQ(empty.at(1.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_TRUE(empty.resampled(5).points.empty());

  const auto one = Cdf::from_samples({4.0});
  EXPECT_DOUBLE_EQ(one.at(3.9), 0.0);
  EXPECT_DOUBLE_EQ(one.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 4.0);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 4.0);
}

Flags make_flags(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  static std::vector<char*> argv;
  argv.clear();
  for (auto& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, ParsesKeyValueAndDefaults) {
  const auto flags =
      make_flags({"prog", "--hosts=128", "--verbose", "--rate=2.5"});
  EXPECT_EQ(flags.get_int("hosts", 0), 128);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 2.5);
  EXPECT_EQ(flags.get_int("planes", 4), 4);
  EXPECT_FALSE(flags.has("planes"));
  EXPECT_TRUE(flags.has("hosts"));
}

TEST(Flags, ParsesSpaceSeparatedValues) {
  const auto flags = make_flags(
      {"prog", "--hosts", "128", "--rate", "2.5", "--label", "a-b"});
  EXPECT_EQ(flags.get_int("hosts", 0), 128);
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 2.5);
  EXPECT_EQ(flags.get("label", ""), "a-b");
}

TEST(Flags, MixedFormsAndTrailingBoolean) {
  // "--verbose" followed by another "--flag" must stay a boolean, not
  // swallow the next flag as its value; both spellings coexist.
  const auto flags =
      make_flags({"prog", "--verbose", "--hosts", "64", "--planes=2",
                  "--quiet"});
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_TRUE(flags.get_bool("quiet", false));
  EXPECT_EQ(flags.get_int("hosts", 0), 64);
  EXPECT_EQ(flags.get_int("planes", 0), 2);
}

TEST(FlagsUsageDeathTest, BarePositionalArgumentFailsFast) {
  EXPECT_EXIT(make_flags({"prog", "oops"}),
              testing::ExitedWithCode(2),
              "expected --key=value or --key value");
}

TEST(FlagsUsageDeathTest, DuplicateFlagAbortsNamingTheFlag) {
  // Last-wins would silently discard a value; the parser must name the
  // offending flag instead.
  EXPECT_EXIT(make_flags({"prog", "--hosts=4", "--hosts=8"}),
              testing::ExitedWithCode(2), "duplicate flag --hosts");
  // Both spellings count as the same flag.
  EXPECT_EXIT(make_flags({"prog", "--hosts", "4", "--hosts=8"}),
              testing::ExitedWithCode(2), "duplicate flag --hosts");
  // A bare boolean repeated is rejected too.
  EXPECT_EXIT(make_flags({"prog", "--verbose", "--verbose"}),
              testing::ExitedWithCode(2), "duplicate flag --verbose");
}

TEST(FlagsUsageDeathTest, NumbersMustParseWhole) {
  // std::stoi would run "16abc" as 16 and throw on "abc"; the getters
  // name the flag and exit 2 instead.
  const auto flags =
      make_flags({"prog", "--hosts=16abc", "--seed=abc", "--big=3000000000",
                  "--rate=nan", "--gap=1e3"});
  EXPECT_EXIT((void)flags.get_int("hosts", 0), testing::ExitedWithCode(2),
              "--hosts=16abc is not an integer");
  EXPECT_EXIT((void)flags.get_i64("seed", 0), testing::ExitedWithCode(2),
              "--seed=abc is not an integer");
  EXPECT_EXIT((void)flags.get_int("big", 0), testing::ExitedWithCode(2),
              "--big=3000000000 is not in range");
  EXPECT_EQ(flags.get_i64("big", 0), 3'000'000'000);
  EXPECT_EXIT((void)flags.get_double("rate", 0.0), testing::ExitedWithCode(2),
              "--rate=nan is not a finite number");
  EXPECT_DOUBLE_EQ(flags.get_double("gap", 0.0), 1000.0);
  EXPECT_EXIT((void)flags.get_int("gap", 0), testing::ExitedWithCode(2),
              "--gap=1e3 is not an integer");
}

TEST(Flags, PaperScaleFlag) {
  EXPECT_TRUE(make_flags({"prog", "--scale=paper"}).paper_scale());
  EXPECT_FALSE(make_flags({"prog"}).paper_scale());
}

TEST(Flags, ProgramIsArgvBasename) {
  // Usage and error messages must name the binary, not its full path.
  EXPECT_EQ(make_flags({"/build/bench/bench_fig9"}).program(), "bench_fig9");
  EXPECT_EQ(make_flags({"./pnet-serve"}).program(), "pnet-serve");
  EXPECT_EQ(make_flags({"prog"}).program(), "prog");
}

TEST(FlagsUsageDeathTest, VersionExitsZero) {
  // (--version prints "<binary> <version>" on stdout; EXPECT_EXIT can only
  // match stderr, so assert the exit code.)
  EXPECT_EXIT(make_flags({"/x/y/mytool", "--version"}).handle_usage(""),
              testing::ExitedWithCode(0), "");
}

TEST(FlagsUsageDeathTest, HelpExitsZero) {
  EXPECT_EXIT(
      make_flags({"/x/y/mytool", "--help"}).handle_usage("  --foo N\n"),
      testing::ExitedWithCode(0), "");
}

TEST(FlagsUsageDeathTest, UnknownFlagNamesTheBinaryBasename) {
  EXPECT_EXIT(
      make_flags({"/x/y/mytool", "--tyop=1"}).handle_usage("  --foo N\n"),
      testing::ExitedWithCode(2), "mytool: unrecognized flag --tyop");
}

constexpr const char* kUsage =
    "demo: a test binary\n"
    "  --hosts=N     hosts\n"
    "  --cap_mb=N    cap in MB\n";

TEST(FlagsUsageDeathTest, UnknownFlagAborts) {
  const auto flags = make_flags({"prog", "--hostz=4"});
  EXPECT_EXIT(flags.handle_usage(kUsage), testing::ExitedWithCode(2),
              "unrecognized flag --hostz");
}

TEST(FlagsUsageDeathTest, HelpPrintsUsageAndExitsZero) {
  const auto flags = make_flags({"prog", "--help"});
  EXPECT_EXIT(flags.handle_usage(kUsage), testing::ExitedWithCode(0),
              "");
}

TEST(FlagsUsageDeathTest, KnownAndCommonFlagsPass) {
  // Flags named in the usage text — including underscored ones — and the
  // always-available common flags must not abort.
  const auto flags =
      make_flags({"prog", "--hosts=4", "--cap_mb=16", "--scale=paper"});
  flags.handle_usage(kUsage);  // returns normally
  SUCCEED();
}

TEST(FlagsUsageDeathTest, EngineIsNotACommonFlag) {
  // Only benches that read --engine list it; anywhere else it must fail
  // fast instead of being accepted and ignored.
  EXPECT_EXIT(make_flags({"prog", "--engine=fsim"}).handle_usage(kUsage),
              testing::ExitedWithCode(2), "unrecognized flag --engine");
  make_flags({"prog", "--engine=fsim"})
      .handle_usage("  --engine=E    packet|fsim\n");  // returns normally
  SUCCEED();
}

TEST(FlagsUsageDeathTest, RequireOnlyRejectsCommonFlagsToo) {
  // A report mode that reads a fixed set must reject even the runner's
  // common flags, which handle_usage would accept and the mode ignore.
  make_flags({"prog", "--json=x", "--pairs=8"}).require_only({"json", "pairs"});
  EXPECT_EXIT(make_flags({"prog", "--json=x", "--trials=2"})
                  .require_only({"json", "pairs"}),
              testing::ExitedWithCode(2), "unrecognized flag --trials");
  EXPECT_EXIT(make_flags({"prog", "--json=x", "--bogus=3"})
                  .require_only({"json", "pairs"}),
              testing::ExitedWithCode(2), "prog: unrecognized flag --bogus");
  EXPECT_EXIT(make_flags({"prog", "--bogus=3"}).require_only({"json", "pairs"}),
              testing::ExitedWithCode(2), "accepted flags: --json --pairs");
}

TEST(Table, RendersAlignedRows) {
  TextTable t("Demo", {"name", "x", "y"});
  t.add_row({"alpha", "1", "2"});
  t.add_row("beta", {3.14159, 2.0}, 2);
  const std::string s = t.render();
  EXPECT_NE(s.find("== Demo =="), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_EQ(s.find("3.14159"), std::string::npos);  // precision applied
}

TEST(Table, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(3.0), "3");
  EXPECT_EQ(format_double(3.10, 2), "3.1");
  EXPECT_EQ(format_double(0.042, 3), "0.042");
}

}  // namespace
}  // namespace pnet
