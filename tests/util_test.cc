#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <concepts>
#include <numeric>
#include <random>
#include <set>
#include <vector>

#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace themis {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kNotConverged,
        StatusCode::kParseError, StatusCode::kInternal,
        StatusCode::kUnimplemented, StatusCode::kIoError}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  THEMIS_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  auto bad = Quarter(6);  // 6/2=3 is odd
  EXPECT_FALSE(bad.ok());
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtilTest, SplitSingleField) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, ","), "x,y,z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  ab \t\n"), "ab");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("SeLeCt"), "SELECT");
  EXPECT_TRUE(EqualsIgnoreCase("GROUP", "group"));
  EXPECT_FALSE(EqualsIgnoreCase("GROUPS", "group"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
}

TEST(StringUtilTest, CsvEscapePassesPlainFields) {
  EXPECT_EQ(CsvEscape("abc"), "abc");
  EXPECT_EQ(CsvEscape(""), "");
}

TEST(StringUtilTest, CsvEscapeQuotesSpecials) {
  EXPECT_EQ(CsvEscape("[0,30)"), "\"[0,30)\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(StringUtilTest, SplitCsvLineBasics) {
  auto fields = SplitCsvLine("a,b,,c");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[2], "");
}

TEST(StringUtilTest, SplitCsvLineQuoted) {
  auto fields = SplitCsvLine("\"[0,30)\",x,\"a\"\"b\"");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "[0,30)");
  EXPECT_EQ(fields[1], "x");
  EXPECT_EQ(fields[2], "a\"b");
}

TEST(StringUtilTest, CsvEscapeRoundTrip) {
  const std::vector<std::string> inputs = {"plain", "[0,30)", "a\"b", "",
                                           "x,y,z"};
  std::string line;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (i > 0) line += ',';
    line += CsvEscape(inputs[i]);
  }
  EXPECT_EQ(SplitCsvLine(line), inputs);
}

static_assert(std::uniform_random_bit_generator<Mt19937_64>);

TEST(Mt19937_64Test, MatchesTheStandardEngine) {
  for (const uint64_t seed : {0ull, 1ull, 42ull, 5489ull, 123456789ull}) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    size_t differing = 0;
    for (int i = 0; i < 1000000; ++i) differing += engine() != reference();
    EXPECT_EQ(differing, 0u) << "seed " << seed;
  }
}

TEST(Mt19937_64Test, TenThousandthOutputOfTheDefaultSeed) {
  // The value the C++ standard requires of mt19937_64 ([rand.predef]).
  Mt19937_64 engine;
  engine.discard(9999);
  EXPECT_EQ(engine(), 9981545732273789042ull);
}

TEST(Mt19937_64Test, DiscardMatchesTheStandardEngine) {
  // From a fresh state and from one a few outputs into its block, so the
  // skips end before, at and past a block boundary.
  for (const int drawn_first : {0, 5}) {
    for (const unsigned long long z : {0ull, 1ull, 311ull, 312ull, 313ull,
                                       624ull, 375000ull}) {
      Mt19937_64 engine(77);
      std::mt19937_64 reference(77);
      for (int i = 0; i < drawn_first; ++i) {
        ASSERT_EQ(engine(), reference());
      }
      engine.discard(z);
      reference.discard(z);
      for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(engine(), reference())
            << "discard " << z << " after " << drawn_first << ", output " << i;
      }
    }
  }
}

TEST(Mt19937_64Test, DrivesStandardAlgorithmsLikeTheStandardEngine) {
  std::vector<int> shuffled(1000), expected(1000);
  std::iota(shuffled.begin(), shuffled.end(), 0);
  std::iota(expected.begin(), expected.end(), 0);
  Rng rng(11);
  std::mt19937_64 reference(11);
  std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
  std::shuffle(expected.begin(), expected.end(), reference);
  EXPECT_EQ(shuffled, expected);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(rng.UniformInt(-3, 1000),
              std::uniform_int_distribution<int64_t>(-3, 1000)(reference));
    ASSERT_EQ(std::bit_cast<uint64_t>(rng.Normal(1.5, 2.0)),
              std::bit_cast<uint64_t>(
                  std::normal_distribution<double>(1.5, 2.0)(reference)));
  }
}

TEST(RngTest, UniformDoubleMatchesTheStandardDistributionBitwise) {
  Rng rng(2020);
  std::mt19937_64 reference(2020);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  size_t differing = 0;
  for (int i = 0; i < 10000000; ++i) {
    differing += std::bit_cast<uint64_t>(rng.UniformDouble()) !=
                 std::bit_cast<uint64_t>(unit(reference));
  }
  EXPECT_EQ(differing, 0u);
}

/// A bit generator that returns one fixed word.
struct FixedWord {
  using result_type = uint64_t;
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~uint64_t{0}; }
  uint64_t operator()() { return word; }
  uint64_t word;
};

TEST(RngTest, UnitDoubleConvertsEdgeWordsLikeTheStandardDistribution) {
  // 2^63 + 1025 and 2^64 - 3071 halve to a tie that only the kept low
  // bit breaks the right way; 2^64 - 1024 and up round to 2^64 and clamp.
  constexpr uint64_t kTop = uint64_t{1} << 63;
  for (const uint64_t word :
       {uint64_t{0}, uint64_t{1}, kTop - 1, kTop, kTop + 1, kTop + 1025,
        ~uint64_t{0} - 3070, ~uint64_t{0} - 2046, ~uint64_t{0} - 1023,
        ~uint64_t{0}}) {
    FixedWord fixed{word};
    const double expected =
        std::uniform_real_distribution<double>(0.0, 1.0)(fixed);
    const double got = Rng::ToUnitDouble(word);
    EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(expected))
        << "word " << word << ": " << got << " vs " << expected;
    EXPECT_LT(got, 1.0) << "word " << word;
  }
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

// The BN sample fan-out starts table k from Rng(seed) advanced past the
// draws of tables 0..k-1; that is exact only while every UniformDouble()
// consumes exactly one engine output.
TEST(RngTest, UniformDoubleConsumesOneEngineOutput) {
  for (int n : {0, 1, 7, 1000}) {
    Rng drawn(99), skipped(99);
    for (int i = 0; i < n; ++i) drawn.UniformDouble();
    skipped.engine().discard(static_cast<unsigned long long>(n));
    EXPECT_EQ(drawn.engine()(), skipped.engine()()) << "n = " << n;
  }
}

TEST(RngTest, DiscardContinuesTheStream) {
  constexpr int kSkip = 12345;
  Rng sequential(7);
  for (int i = 0; i < kSkip; ++i) sequential.UniformDouble();
  Rng offset(7);
  offset.engine().discard(kSkip);
  for (int i = 0; i < 100; ++i) {
    const double expected = sequential.UniformDouble();
    EXPECT_EQ(offset.UniformDouble(), expected) << "draw " << i;
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, CategoricalRespectsZeroWeights) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    size_t pick = rng.Categorical({0.0, 1.0, 0.0});
    EXPECT_EQ(pick, 1u);
  }
}

TEST(CategoricalSamplerTest, MatchesWeights) {
  Rng rng(3);
  CategoricalSampler sampler({1.0, 3.0});
  int counts[2] = {0, 0};
  for (int i = 0; i < 20000; ++i) counts[sampler.Sample(rng)]++;
  const double frac = static_cast<double>(counts[1]) / 20000.0;
  EXPECT_NEAR(frac, 0.75, 0.02);
}

TEST(CategoricalSamplerTest, SingleOutcome) {
  Rng rng(4);
  CategoricalSampler sampler({5.0});
  EXPECT_EQ(sampler.Sample(rng), 0u);
}

TEST(RngTest, ZipfSkewsTowardsSmallIndices) {
  Rng rng(5);
  int low = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Zipf(100, 1.2) < 10) ++low;
  }
  EXPECT_GT(low, trials / 2);  // heavy head
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GE(t.Seconds(), 0.0);
  EXPECT_LT(t.Seconds(), 10.0);
}

}  // namespace
}  // namespace themis
