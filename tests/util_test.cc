// Unit tests for kgqan::util — status, string helpers, deterministic RNG.

#include <gtest/gtest.h>

#include <set>

#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace kgqan::util {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

StatusOr<int> Quarter(int x) {
  KGQAN_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd.
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("Danish Straits"), "danish straits");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("a,b,,c", ',', /*skip_empty=*/true),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("aXbXc", "X", "--"), "a--b--c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");  // Non-overlapping.
  EXPECT_EQ(ReplaceAll("abc", "", "x"), "abc");   // Empty `from` is a no-op.
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("http://x", "http://"));
  EXPECT_FALSE(StartsWith("ftp://x", "http://"));
  EXPECT_FALSE(StartsWith("http", "http://"));  // Prefix longer than s.
}

TEST(StringUtilTest, SplitIdentifierWords) {
  EXPECT_EQ(SplitIdentifierWords("nearestCity"),
            (std::vector<std::string>{"nearest", "city"}));
  EXPECT_EQ(SplitIdentifierWords("birth_place"),
            (std::vector<std::string>{"birth", "place"}));
  EXPECT_EQ(SplitIdentifierWords("P227"),
            (std::vector<std::string>{"p", "227"}));
  EXPECT_EQ(SplitIdentifierWords("HTTPServer2x"),
            (std::vector<std::string>{"h", "t", "t", "p", "server", "2",
                                      "x"}));
  EXPECT_TRUE(SplitIdentifierWords("").empty());
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(0.0, 1), "0.0");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, UniformIntHitsAllValues) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianRoughMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.15);
  EXPECT_NEAR(var, 9.0, 0.6);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, Fnv1aStableAndDistinct) {
  EXPECT_EQ(Fnv1a64("spouse"), Fnv1a64("spouse"));
  EXPECT_NE(Fnv1a64("spouse"), Fnv1a64("spouses"));
  EXPECT_NE(Fnv1a64(""), Fnv1a64("a"));
}

}  // namespace
}  // namespace kgqan::util
