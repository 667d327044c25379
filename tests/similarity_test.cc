#include <string>

#include <gtest/gtest.h>

#include "sim/similarity.h"
#include "util/rng.h"

namespace power {
namespace {

TEST(EditDistanceTest, KnownCases) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(EditDistance("abc", "acb"), 2u);  // no transposition op
}

TEST(EditDistanceTest, Symmetric) {
  EXPECT_EQ(EditDistance("sunday", "saturday"),
            EditDistance("saturday", "sunday"));
}

TEST(EditDistanceTest, TriangleInequalityProperty) {
  Rng rng(31);
  auto random_string = [&rng]() {
    std::string s;
    size_t len = rng.UniformIndex(10);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.UniformIndex(4)));
    }
    return s;
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::string a = random_string();
    std::string b = random_string();
    std::string c = random_string();
    EXPECT_LE(EditDistance(a, c),
              EditDistance(a, b) + EditDistance(b, c));
  }
}

TEST(EditSimilarityTest, Equation2) {
  // EDS = 1 - ED / max(len).
  EXPECT_DOUBLE_EQ(EditSimilarity("abcd", "abcd"), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abcd", "abce"), 0.75);
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("ab", ""), 0.0);
}

TEST(EditSimilarityTest, CaseInsensitive) {
  EXPECT_DOUBLE_EQ(EditSimilarity("ABCD", "abcd"), 1.0);
}

TEST(WordJaccardTest, Equation1) {
  EXPECT_DOUBLE_EQ(WordJaccard("a b c", "b c d"), 0.5);
  EXPECT_DOUBLE_EQ(WordJaccard("x", "x"), 1.0);
  EXPECT_DOUBLE_EQ(WordJaccard("x", "y"), 0.0);
}

TEST(BigramJaccardTest, Basics) {
  EXPECT_DOUBLE_EQ(BigramJaccard("abc", "abc"), 1.0);
  // "abc" -> {ab, bc}; "abd" -> {ab, bd}: 1/3.
  EXPECT_NEAR(BigramJaccard("abc", "abd"), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(BigramJaccard("xy", "zw"), 0.0);
}

TEST(ComputeSimilarityTest, DispatchesOnFunction) {
  EXPECT_DOUBLE_EQ(
      ComputeSimilarity(SimilarityFunction::kJaccard, "a b", "a b"), 1.0);
  EXPECT_DOUBLE_EQ(
      ComputeSimilarity(SimilarityFunction::kEditSimilarity, "ab", "ab"),
      1.0);
  EXPECT_DOUBLE_EQ(
      ComputeSimilarity(SimilarityFunction::kBigramJaccard, "abc", "abc"),
      1.0);
  // They disagree on a case where token sets match but characters differ in
  // order.
  double jac = ComputeSimilarity(SimilarityFunction::kJaccard, "b a", "a b");
  double eds =
      ComputeSimilarity(SimilarityFunction::kEditSimilarity, "b a", "a b");
  EXPECT_DOUBLE_EQ(jac, 1.0);
  EXPECT_LT(eds, 1.0);
}

TEST(SimilarityRangeProperty, AllFunctionsStayInUnitInterval) {
  Rng rng(41);
  auto random_string = [&rng]() {
    std::string s;
    size_t len = rng.UniformIndex(12);
    for (size_t i = 0; i < len; ++i) {
      char c = rng.Bernoulli(0.2)
                   ? ' '
                   : static_cast<char>('a' + rng.UniformIndex(6));
      s.push_back(c);
    }
    return s;
  };
  for (int trial = 0; trial < 300; ++trial) {
    std::string a = random_string();
    std::string b = random_string();
    for (auto fn : {SimilarityFunction::kJaccard,
                    SimilarityFunction::kEditSimilarity,
                    SimilarityFunction::kBigramJaccard}) {
      double s = ComputeSimilarity(fn, a, b);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
      // Symmetry.
      EXPECT_DOUBLE_EQ(s, ComputeSimilarity(fn, b, a));
      // Identity of indiscernibles (similarity form): s(a,a) == 1.
      EXPECT_DOUBLE_EQ(ComputeSimilarity(fn, a, a), 1.0);
    }
  }
}

}  // namespace
}  // namespace power
