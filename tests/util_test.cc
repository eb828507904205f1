// Unit tests for the psk_util helpers.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/error.h"
#include "util/format.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace psk::util {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(Rng, JitterWithinAmplitude) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double j = rng.jitter(0.05);
    EXPECT_GE(j, 0.95);
    EXPECT_LE(j, 1.05);
  }
}

TEST(Rng, ReseedReproduces) {
  Rng rng(9);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(rng());
  rng.reseed(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng(), first[static_cast<std::size_t>(i)]);
}

TEST(RunningStats, Basics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Stats, Summarize) {
  const std::vector<double> xs = {3.0, 1.0, 2.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
}

TEST(Stats, SummarizeEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 2.5);
}

TEST(Stats, PercentileSortedMatchesByValueForm) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0};
  for (const double p : {0.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(percentile_sorted(sorted, p),
                     percentile({4.0, 1.0, 3.0, 2.0}, p));
  }
  EXPECT_DOUBLE_EQ(percentile_sorted({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(std::vector<double>{7.0}, 95.0), 7.0);
}

TEST(Stats, RelDiff) {
  EXPECT_DOUBLE_EQ(rel_diff(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(rel_diff(1.0, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(rel_diff(2.0, 1.0), 0.5);
}

TEST(Format, Fixed) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(-1.5, 0), "-2");  // round-half-even via printf
}

TEST(Format, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(1536), "1.50 KB");
  EXPECT_EQ(human_bytes(3u * 1024 * 1024), "3.00 MB");
}

TEST(Format, HumanSeconds) {
  EXPECT_EQ(human_seconds(0.0000005), "0.5 us");
  EXPECT_EQ(human_seconds(0.5), "500.00 ms");
  EXPECT_EQ(human_seconds(42.0), "42.00 s");
  EXPECT_EQ(human_seconds(125.0), "2m5s");
}

TEST(Format, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcdef", 3), "abc");
}

TEST(Table, RendersAllCells) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row_numeric("beta", {2.5}, 1);
  const std::string out = t.render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ConfigError);
}

TEST(BarChart, ScalesToWidth) {
  BarChart chart;
  chart.width = 10;
  chart.entries = {{"full", 10.0}, {"half", 5.0}};
  const std::string out = chart.render();
  EXPECT_NE(out.find("##########"), std::string::npos);
  EXPECT_NE(out.find("#####"), std::string::npos);
}

TEST(GroupedSeries, RendersLabels) {
  GroupedSeries g;
  g.group_labels = {"g1", "g2"};
  g.series_labels = {"s1", "s2"};
  g.values = {{1.0, 2.0}, {3.0, 4.0}};
  const std::string out = g.render();
  EXPECT_NE(out.find("g1"), std::string::npos);
  EXPECT_NE(out.find("s2"), std::string::npos);
  EXPECT_NE(out.find("4.0"), std::string::npos);
}

TEST(Cli, ParsesForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta=4.5", "--flag",
                        "positional"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 0), 4.5);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_FALSE(cli.get_bool("missing", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, Defaults) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get("name", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(cli.get_double("x", 2.5), 2.5);
}

TEST(Error, RequireThrows) {
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_THROW(require(false, "bad"), ConfigError);
  EXPECT_NO_THROW(require(true, std::string("held")));
  EXPECT_THROW(require(false, std::string("held")), ConfigError);
}

TEST(Error, RequireBuildsMessageOnlyOnFailure) {
  int calls = 0;
  const auto message = [&] {
    ++calls;
    return "rank " + std::to_string(7) + " out of range";
  };
  EXPECT_NO_THROW(require(true, message));
  EXPECT_EQ(calls, 0);
  try {
    require(false, message);
    ADD_FAILURE() << "require(false, ...) did not throw";
  } catch (const ConfigError& error) {
    EXPECT_STREQ(error.what(), "rank 7 out of range");
  }
  EXPECT_EQ(calls, 1);
}

TEST(Cli, ParsePositiveDoublesValidList) {
  const std::vector<double> values =
      parse_positive_doubles("10,0.5,5", "--sizes");
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 10.0);
  EXPECT_DOUBLE_EQ(values[1], 0.5);
  EXPECT_DOUBLE_EQ(values[2], 5.0);
}

TEST(Cli, ParsePositiveDoublesSingleValue) {
  const std::vector<double> values = parse_positive_doubles("2.5", "--sizes");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_DOUBLE_EQ(values[0], 2.5);
}

TEST(Cli, ParsePositiveDoublesRejectsMalformedInput) {
  // Regression: these used to abort the process inside std::stod instead of
  // raising a catchable ConfigError naming the flag.
  EXPECT_THROW(parse_positive_doubles("10,,5", "--sizes"), ConfigError);
  EXPECT_THROW(parse_positive_doubles("abc", "--sizes"), ConfigError);
  EXPECT_THROW(parse_positive_doubles("", "--sizes"), ConfigError);
  EXPECT_THROW(parse_positive_doubles("10,", "--sizes"), ConfigError);
  EXPECT_THROW(parse_positive_doubles("1.5x", "--sizes"), ConfigError);
  EXPECT_THROW(parse_positive_doubles("nan", "--sizes"), ConfigError);
  EXPECT_THROW(parse_positive_doubles("inf", "--sizes"), ConfigError);
}

TEST(Cli, ParsePositiveDoublesRejectsNonPositive) {
  EXPECT_THROW(parse_positive_doubles("0", "--sizes"), ConfigError);
  EXPECT_THROW(parse_positive_doubles("10,-1", "--sizes"), ConfigError);
}

TEST(Cli, ParsePositiveDoublesErrorNamesFlag) {
  try {
    parse_positive_doubles("oops", "--sizes");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("--sizes"), std::string::npos);
  }
}

TEST(Cli, NumericGettersRejectMalformedValues) {
  // strtod/strtoll would silently yield 0 for these; the getters must
  // validate the whole token and throw instead.
  const char* argv[] = {"prog", "--jobs=abc", "--rate=4x", "--empty=",
                        "--trail=1.5e"};
  Cli cli(5, argv);
  EXPECT_THROW(cli.get_int("jobs", 7), ConfigError);
  EXPECT_THROW(cli.get_double("rate", 7), ConfigError);
  EXPECT_THROW(cli.get_int("empty", 7), ConfigError);
  EXPECT_THROW(cli.get_double("empty", 7), ConfigError);
  EXPECT_THROW(cli.get_double("trail", 7), ConfigError);
  EXPECT_THROW(cli.get_int("rate", 7), ConfigError);  // int getter, "4x"
}

TEST(Cli, NumericGetterErrorNamesFlagAndValue) {
  const char* argv[] = {"prog", "--jobs=abc"};
  Cli cli(2, argv);
  try {
    cli.get_int("jobs", 0);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--jobs"), std::string::npos);
    EXPECT_NE(what.find("abc"), std::string::npos);
  }
}

TEST(Cli, NumericGettersAcceptValidForms) {
  const char* argv[] = {"prog", "--a=-3", "--b=2.5e-1", "--c=007"};
  Cli cli(4, argv);
  EXPECT_EQ(cli.get_int("a", 0), -3);
  EXPECT_DOUBLE_EQ(cli.get_double("b", 0), 0.25);
  EXPECT_EQ(cli.get_int("c", 0), 7);
}

TEST(Cli, RequireKnownAcceptsDeclaredFlags) {
  const char* argv[] = {"prog", "--jobs=4", "--verbose", "positional"};
  Cli cli(4, argv);
  EXPECT_NO_THROW(cli.require_known({"jobs", "verbose", "unused"}));
}

TEST(Cli, RequireKnownRejectsTypoListingValidFlags) {
  const char* argv[] = {"prog", "--job=4"};
  Cli cli(2, argv);
  try {
    cli.require_known({"jobs", "verbose"});
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--job"), std::string::npos);
    EXPECT_NE(what.find("--jobs"), std::string::npos);
    EXPECT_NE(what.find("--verbose"), std::string::npos);
  }
}

}  // namespace
}  // namespace psk::util
