#include <gtest/gtest.h>

#include <cmath>

#include "sim/similarity.h"

namespace power {
namespace {

TEST(CosineSimilarityTest, KnownValues) {
  EXPECT_DOUBLE_EQ(CosineSimilarity("a b", "a b"), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity("a", "b"), 0.0);
  // |{a}| = 1, |{a,b}| = 2, intersection 1: 1/sqrt(2).
  EXPECT_NEAR(CosineSimilarity("a", "a b"), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(CosineSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity("a", ""), 0.0);
}

TEST(CosineSimilarityTest, BoundsAndSymmetry) {
  const char* samples[] = {"a b c", "c d", "x", "", "a a b"};
  for (const char* a : samples) {
    for (const char* b : samples) {
      double s = CosineSimilarity(a, b);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
      EXPECT_DOUBLE_EQ(s, CosineSimilarity(b, a));
    }
  }
}

TEST(OverlapCoefficientTest, ContainmentGivesOne) {
  // The abbreviation property: a token-subset scores 1.
  EXPECT_DOUBLE_EQ(OverlapCoefficient("ritz carlton", "ritz carlton cafe"),
                   1.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient("a b c", "b"), 1.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient("a b", "b c"), 0.5);
  EXPECT_DOUBLE_EQ(OverlapCoefficient("a", "b"), 0.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient("", ""), 1.0);
}

TEST(NumericSimilarityTest, NumbersCompareByMagnitude) {
  EXPECT_DOUBLE_EQ(NumericSimilarity("100", "100"), 1.0);
  EXPECT_DOUBLE_EQ(NumericSimilarity("100", "50"), 0.5);
  EXPECT_DOUBLE_EQ(NumericSimilarity("0", "0"), 1.0);
  EXPECT_DOUBLE_EQ(NumericSimilarity("1994", "1994"), 1.0);
  EXPECT_NEAR(NumericSimilarity("1990", "1995"), 1.0 - 5.0 / 1995.0, 1e-12);
  // Opposite signs saturate at 0.
  EXPECT_DOUBLE_EQ(NumericSimilarity("-10", "10"), 0.0);
}

TEST(NumericSimilarityTest, NonNumericFallsBackToBigram) {
  EXPECT_DOUBLE_EQ(NumericSimilarity("abc", "abc"),
                   BigramJaccard("abc", "abc"));
  EXPECT_DOUBLE_EQ(NumericSimilarity("12a", "12a"),
                   BigramJaccard("12a", "12a"));
  // One numeric, one not: still the string fallback.
  EXPECT_DOUBLE_EQ(NumericSimilarity("123", "abc"),
                   BigramJaccard("123", "abc"));
}

// strtod reads these, but they are not finite numbers: equal cells score 1
// through the string fallback, as "12a" does, not 0 through a NaN.
TEST(NumericSimilarityTest, NonFiniteTextFallsBackToBigram) {
  for (const char* cell : {"inf", "nan", "NaN", "1e999", "-inf", "-1e999",
                           " Infinity ", "nan(0x1)"}) {
    SCOPED_TRACE(cell);
    double parsed = 0.0;
    EXPECT_FALSE(ParseNumericValue(cell, &parsed));
    EXPECT_EQ(NumericSimilarity(cell, cell), 1.0);
    EXPECT_EQ(NumericSimilarity(cell, cell), BigramJaccard(cell, cell));
    EXPECT_EQ(NumericSimilarity(cell, "5"), BigramJaccard(cell, "5"));
  }
  // Finite text still parses, underflow to zero included.
  double parsed = 1.0;
  EXPECT_TRUE(ParseNumericValue("1e-999", &parsed));
  EXPECT_EQ(parsed, 0.0);
  EXPECT_EQ(NumericSimilarity("1e308", "1e308"), 1.0);
}

TEST(ComputeSimilarityTest, DispatchesExtensions) {
  EXPECT_DOUBLE_EQ(
      ComputeSimilarity(SimilarityFunction::kCosine, "a b", "a b"), 1.0);
  EXPECT_DOUBLE_EQ(
      ComputeSimilarity(SimilarityFunction::kOverlap, "a", "a b"), 1.0);
  EXPECT_DOUBLE_EQ(
      ComputeSimilarity(SimilarityFunction::kNumeric, "10", "5"), 0.5);
}

TEST(SimilarityFunctionNameTest, ExtensionsNamed) {
  EXPECT_STREQ(SimilarityFunctionName(SimilarityFunction::kCosine),
               "cosine");
  EXPECT_STREQ(SimilarityFunctionName(SimilarityFunction::kOverlap),
               "overlap");
  EXPECT_STREQ(SimilarityFunctionName(SimilarityFunction::kNumeric),
               "numeric");
}

}  // namespace
}  // namespace power
