#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "support/error.hpp"
#include "support/flags.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace crs {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 4);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowRejectsZero) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), Error);
}

TEST(Rng, NextInCoversInclusiveRange) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(5);
  OnlineStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.next_gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(Rng, BernoulliFrequencyTracksP) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.next_bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::multiset<int> a(v.begin(), v.end()), b(w.begin(), w.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng b = a.split();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(OnlineStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  OnlineStats s;
  for (double x : xs) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 6.2);
  EXPECT_NEAR(s.variance(), 37.2, 1e-9);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 16.0);
  EXPECT_EQ(s.count(), 5u);
}

TEST(OnlineStats, MergeEqualsSinglePass) {
  Rng rng(2);
  OnlineStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_gaussian(3.0, 2.0);
    all.add(x);
    (i < 500 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_EQ(left.count(), all.count());
}

TEST(Stats, MedianAndPercentile) {
  std::vector<double> xs{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.5);
}

TEST(Stats, EmptyPercentileThrows) {
  EXPECT_THROW(percentile({}, 50), Error);
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitWsDropsBlanks) {
  const auto parts = split_ws("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(Strings, TrimBothEnds) { EXPECT_EQ(trim("  x \t"), "x"); }

TEST(Strings, ParseIntDecimalHexNegative) {
  std::int64_t v = 0;
  EXPECT_TRUE(parse_int("123", v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(parse_int("0x1f", v));
  EXPECT_EQ(v, 31);
  EXPECT_TRUE(parse_int("-42", v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(parse_int("12x", v));
  EXPECT_FALSE(parse_int("", v));
  EXPECT_FALSE(parse_int("-", v));
}

TEST(Strings, ParseNumberGrammar) {
  EXPECT_EQ(parse_number<std::uint64_t>("n", "010"), 10u);  // not octal
  EXPECT_EQ(parse_number<std::uint64_t>("n", "0x1F"), 31u);
  EXPECT_EQ(parse_number<int>("n", "-0x10"), -16);
  EXPECT_EQ(parse_number<std::int64_t>("n", "-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(parse_number<double>("n", "0.30000000000000004"), 0.1 + 0.2);
  EXPECT_EQ(parse_number<double>("n", "4.9406564584124654e-324"),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(parse_number<int>("n", "7", 1, 7), 7);
  for (const std::string bad :
       {"", " 1", "1 ", "+1", "1x", "0x", "-", "--1", "1.0", "1e3"}) {
    EXPECT_THROW(parse_number<int>("n", bad), Error) << "'" << bad << "'";
  }
  EXPECT_THROW(parse_number<unsigned>("n", "-0"), Error);
  EXPECT_THROW(parse_number<std::int64_t>("n", "-9223372036854775809"),
               Error);
  for (const std::string bad : {"nan", "-inf", "infinity", "1e999", "0x1p3"}) {
    EXPECT_THROW(parse_number<double>("n", bad), Error) << bad;
  }
  try {
    parse_number<int>("job spec: mx.attempts", "0", 1, 1000);
    FAIL() << "0 accepted";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "job spec: mx.attempts wants an integer in 1..1000, got '0'");
  }
}

TEST(Strings, HexAndFixedFormatting) {
  EXPECT_EQ(hex(255), "0xff");
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("x", 3), "  x");
  EXPECT_EQ(pad_right("x", 3), "x  ");
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name   | value"), std::string::npos);
  EXPECT_NE(out.find("longer | 22"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, MissingCellsRenderEmpty) {
  Table t({"a", "b"});
  t.add_row({"only"});
  EXPECT_NO_THROW(t.render());
}

// Builds a FlagCursor over a fake argv ("test" + the given arguments).
// The vector must outlive the cursor; keeping both in one fixture struct
// makes that automatic.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    ptrs.push_back(const_cast<char*>("test"));
    for (auto& a : storage) ptrs.push_back(a.data());
  }
  FlagCursor cursor() {
    return FlagCursor(static_cast<int>(ptrs.size()), ptrs.data());
  }
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
};

TEST(FlagCursor, TakeValueSpacedAndInline) {
  Argv a({"--seed", "7", "--out=path.csv", "--empty="});
  auto args = a.cursor();
  std::string v;
  EXPECT_TRUE(args.take_value("--seed", v));
  EXPECT_EQ(v, "7");
  EXPECT_TRUE(args.take_value("--out", v));
  EXPECT_EQ(v, "path.csv");
  v = "sentinel";
  EXPECT_TRUE(args.take_value("--empty", v));
  EXPECT_EQ(v, "");  // `--flag=` is provided-but-empty, not missing
  EXPECT_FALSE(args.more());
}

TEST(FlagCursor, MissingValueThrowsNamedError) {
  Argv a({"--seed"});
  auto args = a.cursor();
  std::string v;
  try {
    args.take_value("--seed", v);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "--seed needs a value");
  }
}

TEST(FlagCursor, BadU64Throws) {
  Argv a({"--seed", "12x"});
  auto args = a.cursor();
  std::uint64_t v = 0;
  try {
    args.take_number("--seed", v);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unsigned integer"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("12x"), std::string::npos);
  }
}

TEST(FlagCursor, U64ParsesHexAndDecimal) {
  Argv a({"--a", "0x10", "--b=42"});
  auto args = a.cursor();
  std::uint64_t v = 0;
  EXPECT_TRUE(args.take_number("--a", v));
  EXPECT_EQ(v, 16u);
  EXPECT_TRUE(args.take_number("--b", v));
  EXPECT_EQ(v, 42u);
}

TEST(FlagCursor, BadIntThrows) {
  for (const std::string bad : {"many", "4294967298"}) {
    Argv a({"--attempts", bad});
    auto args = a.cursor();
    int v = 0;
    try {
      args.take_number("--attempts", v);
      FAIL() << bad << " should have thrown";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("integer"), std::string::npos);
    }
  }
  int v = 0;
  // Empty inline value is also a parse error, not a silent zero.
  Argv b({"--attempts="});
  auto bargs = b.cursor();
  EXPECT_THROW(bargs.take_number("--attempts", v), Error);
}

// The target's type is the flag's range: a value that would wrap or narrow
// is an error naming the flag, and every type's maximum still parses.
template <class T>
void expect_flag_rejected(const std::string& flag, const std::string& value) {
  Argv a({flag, value});
  auto args = a.cursor();
  T v{};
  try {
    args.take_number(flag, v);
    ADD_FAILURE() << flag << ' ' << value << " accepted as " << v;
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).rfind(flag + " wants ", 0), 0u)
        << e.what();
  }
}

template <class T>
void expect_flag_takes_max(const std::string& flag) {
  const T max = std::numeric_limits<T>::max();
  Argv a({flag, std::to_string(max)});
  auto args = a.cursor();
  T v{};
  EXPECT_TRUE(args.take_number(flag, v));
  EXPECT_EQ(v, max);
}

TEST(FlagCursor, NumberOutsideTargetTypeThrows) {
  expect_flag_rejected<std::uint16_t>("--port", "70001");
  expect_flag_rejected<unsigned>("--threads", "4294967297");
  expect_flag_rejected<std::uint64_t>("--seed", "-1");
  expect_flag_rejected<std::uint64_t>("--seed", "18446744073709551616");
  expect_flag_takes_max<std::uint16_t>("--port");
  expect_flag_takes_max<unsigned>("--threads");
  expect_flag_takes_max<std::uint64_t>("--seed");
  expect_flag_takes_max<int>("--attempts");
}

TEST(FlagCursor, IntParsesNegative) {
  Argv a({"--delta", "-3"});
  auto args = a.cursor();
  int v = 0;
  EXPECT_TRUE(args.take_number("--delta", v));
  EXPECT_EQ(v, -3);
}

TEST(FlagCursor, DuplicateFlagLastWins) {
  // The standard tool loop consumes each occurrence in order, so a
  // duplicated flag resolves to its final value rather than erroring.
  Argv a({"--seed", "1", "--seed", "9"});
  auto args = a.cursor();
  std::uint64_t seed = 0;
  while (args.more()) {
    if (args.take_number("--seed", seed)) continue;
    args.unknown();
  }
  EXPECT_EQ(seed, 9u);
}

TEST(FlagCursor, UnknownFlagThrows) {
  Argv a({"--nope"});
  auto args = a.cursor();
  try {
    args.unknown();
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "unknown flag '--nope'");
  }
}

TEST(FlagCursor, MoreFlagsStopsAtPositional) {
  Argv a({"--quick", "prog.s", "--after"});
  auto args = a.cursor();
  EXPECT_TRUE(args.take("--quick"));
  EXPECT_FALSE(args.more_flags());  // "prog.s" is positional
  EXPECT_EQ(args.take_positional(), "prog.s");
  EXPECT_TRUE(args.more_flags());
}

TEST(FlagCursor, PrefixDoesNotMatchValueFlag) {
  // "--seedling" must not be consumed by take_value("--seed", ...).
  Argv a({"--seedling", "x"});
  auto args = a.cursor();
  std::string v;
  EXPECT_FALSE(args.take_value("--seed", v));
  EXPECT_EQ(args.current(), "--seedling");
}

TEST(ParseOnOff, AcceptsCanonicalSpellingsRejectsRest) {
  EXPECT_TRUE(parse_on_off("--affinity", "on"));
  EXPECT_TRUE(parse_on_off("--affinity", "1"));
  EXPECT_FALSE(parse_on_off("--affinity", "off"));
  EXPECT_FALSE(parse_on_off("--affinity", "0"));
  try {
    parse_on_off("--affinity", "yes");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--affinity"), std::string::npos);
  }
}

TEST(Error, EnsureThrowsWithContext) {
  try {
    CRS_ENSURE(false, "the message");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("the message"), std::string::npos);
  }
}

}  // namespace
}  // namespace crs
