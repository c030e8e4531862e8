// Tests for the common substrate: Status/Result, deterministic RNG, string
// helpers, CLI flags and the stopwatch formatting.

#include <map>

#include <gtest/gtest.h>

#include "common/cli.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"

namespace gralmatch {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad gamma");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad gamma");
}

TEST(StatusTest, FactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> good = ParsePositive(3);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 3);
  Result<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(13), 13u);
  }
}

TEST(RngTest, UniformCoversRangeRoughlyEvenly) {
  Rng rng(9);
  std::map<uint64_t, int> counts;
  const int n = 60000;
  for (int i = 0; i < n; ++i) ++counts[rng.Uniform(6)];
  for (const auto& [v, c] : counts) {
    EXPECT_NEAR(c, n / 6, n / 60) << "value " << v;
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NormalHasRoughlyUnitMoments) {
  Rng rng(13);
  const int n = 40000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  const int n = 50000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, WeightedChoiceFavorsHeavyWeights) {
  Rng rng(23);
  std::vector<double> weights = {1.0, 0.0, 9.0};
  int c0 = 0, c2 = 0;
  for (int i = 0; i < 10000; ++i) {
    size_t pick = rng.WeightedChoice(weights);
    EXPECT_NE(pick, 1u);
    if (pick == 0) ++c0;
    if (pick == 2) ++c2;
  }
  EXPECT_NEAR(static_cast<double>(c2) / (c0 + c2), 0.9, 0.03);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringsTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(ToLower("AbC1"), "abc1");
  EXPECT_EQ(ToUpper("AbC1"), "ABC1");
}

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("gralmatch", "gral"));
  EXPECT_FALSE(StartsWith("gral", "gralmatch"));
  EXPECT_TRUE(EndsWith("model.bin", ".bin"));
  EXPECT_FALSE(EndsWith(".bin", "model.bin"));
}

TEST(StringsTest, ReplaceAllNonOverlapping) {
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(ReplaceAll("crowd strike", " ", ""), "crowdstrike");
  EXPECT_EQ(ReplaceAll("x", "", "y"), "x");
}

TEST(StringsTest, StrFormatAndThousands) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(WithThousandsSep(1234567), "1,234,567");
  EXPECT_EQ(WithThousandsSep(-1000), "-1,000");
  EXPECT_EQ(WithThousandsSep(999), "999");
}

TEST(StopwatchTest, FormatsDurations) {
  EXPECT_EQ(Stopwatch::FormatSeconds(5160.0), "1h 26min");
  EXPECT_EQ(Stopwatch::FormatSeconds(288.0), "4.8 min");
  EXPECT_EQ(Stopwatch::FormatSeconds(31.0), "31.0 sec");
  EXPECT_EQ(Stopwatch::FormatSeconds(0.04), "40 ms");
}

TEST(StopwatchTest, ElapsedMonotone) {
  Stopwatch watch;
  double a = watch.ElapsedSeconds();
  double b = watch.ElapsedSeconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(CliTest, ParsesFlagStyles) {
  // Note: a bare "--flag value" consumes the next token as its value, so
  // positional arguments must precede flags (or flags must use "=").
  const char* argv[] = {"prog", "positional", "--scale", "50", "--seed=7",
                        "--verbose"};
  CliFlags flags = CliFlags::Parse(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("scale", 0), 50);
  EXPECT_EQ(flags.GetInt("seed", 0), 7);
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_FALSE(flags.Has("absent"));
  EXPECT_EQ(flags.GetInt("absent", 9), 9);
  EXPECT_EQ(flags.GetDouble("scale", 0.0), 50.0);
  EXPECT_EQ(flags.GetString("seed", ""), "7");
  // The leading non-flag argument is skipped, not read as a flag or value.
  EXPECT_FALSE(flags.Has("positional"));
}

TEST(CliTest, DuplicateFlagKeepsLastValue) {
  // Standard CLI last-wins semantics, pinned for every flag style mix.
  const char* argv[] = {"prog", "--seed=1", "--seed", "2", "--seed=3"};
  CliFlags flags = CliFlags::Parse(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("seed", 0), 3);
  EXPECT_EQ(flags.GetString("seed", ""), "3");
}

TEST(CliTest, ValuelessFlagFallsBackForNumericGetters) {
  // `--verbose` with no value parses as "" — numeric getters treat that as
  // absent rather than as a malformed number.
  const char* argv[] = {"prog", "--verbose"};
  CliFlags flags = CliFlags::Parse(2, const_cast<char**>(argv));
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_EQ(flags.GetInt("verbose", 4), 4);
  EXPECT_EQ(flags.GetDouble("verbose", 0.5), 0.5);
}

TEST(ParseInt64Test, AcceptsWholeStringIntegers) {
  EXPECT_EQ(ParseInt64("0").ValueOrDie(), 0);
  EXPECT_EQ(ParseInt64("-17").ValueOrDie(), -17);
  EXPECT_EQ(ParseInt64("+42").ValueOrDie(), 42);
  EXPECT_EQ(ParseInt64("9223372036854775807").ValueOrDie(), INT64_MAX);
  EXPECT_EQ(ParseInt64("-9223372036854775808").ValueOrDie(), INT64_MIN);
}

TEST(ParseInt64Test, RejectsTrailingGarbageAndNonNumbers) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("x").ok());
  EXPECT_FALSE(ParseInt64("5x").ok());
  EXPECT_FALSE(ParseInt64("5 ").ok());
  EXPECT_FALSE(ParseInt64(" 5").ok());  // no whitespace tolerance either side
  EXPECT_FALSE(ParseInt64("1.5").ok());
  EXPECT_FALSE(ParseInt64("--3").ok());
}

TEST(ParseInt64Test, RejectsOutOfRangeInsteadOfClamping) {
  Result<int64_t> over = ParseInt64("9223372036854775808");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(ParseInt64("-9223372036854775809").ok());
  EXPECT_FALSE(ParseInt64("123456789012345678901234567890").ok());
}

TEST(ParseDoubleTest, AcceptsWholeStringNumbers) {
  EXPECT_DOUBLE_EQ(ParseDouble("0.5").ValueOrDie(), 0.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-3e2").ValueOrDie(), -300.0);
  EXPECT_DOUBLE_EQ(ParseDouble("7").ValueOrDie(), 7.0);
  // Underflow keeps its sign and rounds toward zero; it is not an error.
  EXPECT_TRUE(ParseDouble("1e-400").ok());
}

TEST(ParseDoubleTest, RejectsTrailingGarbageAndOverflow) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("x").ok());
  EXPECT_FALSE(ParseDouble("0.5x").ok());
  EXPECT_FALSE(ParseDouble("0.5 ").ok());
  EXPECT_FALSE(ParseDouble("1..5").ok());
  Result<double> over = ParseDouble("1e999");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(ParseDouble("-1e999").ok());
}

using CliDeathTest = ::testing::Test;

TEST(CliDeathTest, MalformedIntFlagDiesWithDiagnostic) {
  const char* argv[] = {"prog", "--seed=5x"};
  CliFlags flags = CliFlags::Parse(2, const_cast<char**>(argv));
  EXPECT_EXIT(flags.GetInt("seed", 0), ::testing::ExitedWithCode(2),
              "invalid value for --seed");
}

TEST(CliDeathTest, OutOfRangeIntFlagDiesWithDiagnostic) {
  const char* argv[] = {"prog", "--seed=9223372036854775808"};
  CliFlags flags = CliFlags::Parse(2, const_cast<char**>(argv));
  EXPECT_EXIT(flags.GetInt("seed", 0), ::testing::ExitedWithCode(2),
              "outside the int64 range");
}

TEST(CliDeathTest, MalformedDoubleFlagDiesWithDiagnostic) {
  const char* argv[] = {"prog", "--threshold", "0.5abc"};
  CliFlags flags = CliFlags::Parse(3, const_cast<char**>(argv));
  EXPECT_EXIT(flags.GetDouble("threshold", 0.0), ::testing::ExitedWithCode(2),
              "invalid value for --threshold");
}

}  // namespace
}  // namespace gralmatch
